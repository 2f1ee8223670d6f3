import ast
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from rabisim import ensemble
from rabisim.cli import run_scenario
from rabisim.ensemble import (
    AtomModel,
    DetuningDistribution,
    EnsembleConfig,
    QuadratureSupportError,
    SpreadError,
    _sample_shifts,
    ensemble_signal,
    load_empirical_distribution,
    monte_carlo_signal,
    skewed_gaussian_density,
)
from rabisim.model import DriveParams, p1_two_level, p1_two_level_damped, uniform_grid
from rabisim.multilevel import p1_multilevel
from rabisim.scans import scan_detuning
from rabisim.scenario import (MAX_SAMPLES, ScenarioError, load_scenario_dict,
                              parse_scenario, preset_file, scenario_hash)
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


def test_signal_refuses_a_cap_below_the_sized_count():
    # Sigma 18 kHz over 0-12 ms needs 3,479 nodes: on the default cap of
    # 2,001 the sum would be aliased, so it is refused, naming the count, as
    # parse_scenario refuses the same scenario. A support too narrow for the
    # mass is still reported first.
    times = np.arange(0.0, 12.0 + 0.002, 0.004)
    with pytest.raises(ValueError, match="need 3479 quadrature nodes, more than "
                                         "the 2001 allowed"):
        ensemble_signal(_config(18.0), times)
    assert ensemble_signal(_config(18.0, quadrature_nodes=3479), times).values.size == 3001
    with pytest.raises(QuadratureSupportError):
        ensemble_signal(_config(18.0, skew=20.0, support_half_width=5.0), times)


@pytest.mark.parametrize("half_width, miss", [(8.0, "1.88e-04"), (20.0, "3.07e-03")])
def test_quadrature_miss_names_the_rule(half_width, miss):
    # At skew 1e4 the density is nearly the half-normal's step at its mode,
    # which 2001 nodes resolve no better over a wider support: the miss
    # grows with the half-width, so the message states the rule, not a fix.
    dist = DetuningDistribution(kind="skewed_gaussian", sigma=1.0, skew=1e4)
    with pytest.raises(QuadratureSupportError) as info:
        ensemble._parametric_rule(dist.sigma, dist.skew, 2001, half_width)
    message = str(info.value)
    assert f"2001 nodes over +-{half_width:g} sigma misses {miss}" in message
    assert "widen" not in message


def test_subnormal_spread_is_refused_as_a_spread():
    # The density's 2 / w overflows below about 1.1e-308 rad/ms, which no
    # support width mends, so the refusal names sigma.
    with pytest.raises(SpreadError, match="sigma = 1e-310 rad/ms is too small"):
        ensemble._parametric_rule(1e-310, 0.0, 201, 8.0)
    _, weights = ensemble._parametric_rule(1e-300, 0.0, 201, 8.0)
    assert abs(weights.sum() - 1.0) < 1e-12


def _record_rule_densities(monkeypatch):
    """Clear the rule cache and record the sigma and node count of each
    density evaluation on a rule's grid; the node count's shape terms,
    cached on their own, evaluate it at the two support ends only."""
    calls = []
    real = ensemble.skewed_gaussian_density

    def density(sigma, skew, x):
        if np.size(x) > 2:
            calls.append((sigma, np.size(x)))
        return real(sigma, skew, x)
    monkeypatch.setattr(ensemble, "skewed_gaussian_density", density)
    ensemble._parametric_rule.cache_clear()
    return calls


def test_one_rule_per_distribution(monkeypatch):
    # The rule depends on the distribution only, so a scan builds it once.
    calls = _record_rule_densities(monkeypatch)
    base = _config(8.0, skew=3.0)
    times = np.arange(0.0, 1.0, 0.008)
    rows = scan_detuning(base, khz_to_angular(np.linspace(-20.0, 20.0, 41)),
                         times=times, analysis="fft")
    assert len(rows) == 41
    assert len(calls) == 1

    shifts, weights = ensemble._signal_rule(base, times[-1])
    assert len(calls) == 1
    assert not shifts.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 1.0

    # A rejected rule is not cached: every call raises, with the same message.
    narrow = DetuningDistribution(kind="skewed_gaussian", sigma=1.0, skew=20.0)
    messages = []
    for _ in range(2):
        with pytest.raises(QuadratureSupportError) as info:
            ensemble._parametric_rule(narrow.sigma, narrow.skew, 2001, 5.0)
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


# Every preset with a parametric distribution, and the distinct rules its
# blocks sum: fig3a's four drives share one, fig7a's two.
@pytest.mark.parametrize("preset, rules", [
    ("fig5", 5), ("fig1b", 1), ("fig3a", 1), ("fig3b", 1), ("fig4", 1),
    ("fig7a", 2), ("fig7b", 1)])
def test_parse_and_run_build_each_rule_once(tmp_path, monkeypatch, preset, rules):
    # parse_scenario checks the rule of each block, and the run sums that
    # same rule from the cache: one density evaluation per distinct rule.
    calls = _record_rule_densities(monkeypatch)
    data = load_scenario_dict(preset_file(preset))
    scenario = parse_scenario(data)
    assert len(calls) == rules
    run_scenario(scenario, scenario_hash(data), tmp_path)
    assert len(calls) == rules
    assert len(set(calls)) == rules
    assert set(calls) == {(config.distribution.sigma,
                           ensemble._signal_rule(config, scenario.times[-1])[0].size)
                          for _, _, config in scenario.blocks()}


def test_only_ensemble_names_the_rule_builders():
    # The rule is sized and built in ensemble alone; every other module,
    # parse_scenario included, reaches it through _signal_rule.
    for path in sorted(Path(ensemble.__file__).parent.glob("*.py")):
        if path.name == "ensemble.py":
            continue
        names = {getattr(node, key) for node in ast.walk(ast.parse(path.read_text()))
                 for key in ("id", "attr", "name") if isinstance(getattr(node, key, None), str)}
        assert not names & {"_parametric_rule", "quadrature_node_count"}, path.name


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


# trapezoid_error is the error of the plain trapezoid rule on 2001 nodes,
# the rule the sized one replaced, against the same reference; the sized
# rule may be no worse than it or than 1e-13, whichever is larger.
@pytest.mark.parametrize(
    "omega0_khz, delta_khz, sigma_khz, skew, gamma_khz, t_max, dt, half_width, "
    "trapezoid_error", [
        pytest.param(9.0, 13.5, 27.0, 0.0, 0.0, 1.2, 0.008, 8.0, 1.3e-15, id="fig5-widest"),
        pytest.param(5.0, 8.0, 10.0, 3.0, 1.0, 1.0, 0.008, 8.0, 5.6e-14, id="fig3a-skewed"),
        pytest.param(9.0, 7.5, 12.0, 0.0, 1.0, 4.0, 0.004, 8.0, 2.8e-15, id="dense-gaussian"),
        pytest.param(9.0, -7.5, 10.0, -3.0, 1.0, 4.0, 0.004, 8.0, 8.9e-14, id="dense-skewed"),
        pytest.param(1.0, 2.0, 10.0, 3.0, 0.5, 1.0, 0.008, 8.0, 1.5e-14, id="omega0-1-skew3"),
        pytest.param(9.0, 7.5, 12.0, 0.0, 1.0, 1.0, 0.008, 5.0, 1.2e-11, id="gaussian-w5"),
        pytest.param(9.0, 13.5, 27.0, 0.0, 0.0, 2.4, 0.008, 8.0, 1.4e-15, id="sigma27-t2.4"),
        pytest.param(9.0, 0.0, 8.0, 3.0, 1.0, 2.0, 0.008, 12.0, 1.6e-15, id="skew3-w12-t2"),
        pytest.param(9.0, 13.5, 1.8, 0.0, 0.0, 1.2, 0.008, 8.0, 1.8e-15, id="sigma1.8"),
        pytest.param(9.0, 5.0, 10.0, 10.0, 1.0, 1.0, 0.008, 8.0, 5.5e-13, id="skew10"),
    ])
def test_sized_rule_matches_leggauss_reference(leggauss_4001, omega0_khz, delta_khz,
                                               sigma_khz, skew, gamma_khz, t_max, dt,
                                               half_width, trapezoid_error):
    config = _config(sigma_khz, delta_khz=delta_khz, skew=skew, gamma_khz=gamma_khz,
                     support_half_width=half_width)
    config = replace(config, drive=replace(config.drive, omega0=khz_to_angular(omega0_khz)))
    times = np.arange(0.0, t_max + 0.5 * dt, dt)
    nodes = ensemble._signal_rule(config, times[-1])[0].size
    assert nodes < config.quadrature_nodes
    values = ensemble_signal(config, times).values
    error = np.max(np.abs(values - _leggauss_reference(config, times, leggauss_4001)))
    assert error <= max(1e-13, trapezoid_error)


@pytest.mark.parametrize("omega0_khz, t_end, sigma_khz, skew, half_width, expected", [
    pytest.param(9.0, 1.2, 27.0, 0.0, 8.0, 542, id="fig5-widest"),
    pytest.param(9.0, 1.0, 10.0, 3.0, 8.0, 345, id="fig3a"),
    pytest.param(9.0, 1.2, 1.8, 0.0, 8.0, 201, id="floor"),
    pytest.param(9.0, 4.0, 12.0, 0.0, 8.0, 791, id="dense-gaussian"),
    pytest.param(9.0, 40.0, 18.0, 0.0, 8.0, 2001, id="40ms-capped"),
    pytest.param(9.0, 1.0, 8.0, 1e200, 8.0, 2001, id="half-normal-capped"),
    pytest.param(9.0, 1.0, 8.0, -1e308, 8.0, 2001, id="half-normal-overflow"),
])
def test_node_count_examples(omega0_khz, t_end, sigma_khz, skew, half_width, expected):
    dist = DetuningDistribution(kind="skewed_gaussian", sigma=khz_to_angular(sigma_khz),
                                skew=skew)
    assert ensemble.quadrature_node_count(dist, khz_to_angular(omega0_khz), t_end,
                                          half_width, 2001) == expected


@given(sigma=st.floats(min_value=5e-324, max_value=1e6),
       skew=st.floats(min_value=-1e300, max_value=1e300),
       omega0=st.floats(min_value=5e-324, max_value=1e6),
       t_end=st.floats(min_value=0.0, max_value=1e6),
       half_width=st.floats(min_value=5.0, max_value=40.0),
       cap=st.integers(min_value=201, max_value=40_001))
@example(sigma=2.2e-311, skew=3.0, omega0=1.0, t_end=2.0, half_width=8.0, cap=2001)
@settings(max_examples=200, deadline=None)
def test_node_count_within_floor_and_cap(sigma, skew, omega0, t_end, half_width, cap):
    dist = DetuningDistribution(kind="skewed_gaussian", sigma=sigma, skew=skew)
    nodes = ensemble.quadrature_node_count(dist, omega0, t_end, half_width, cap)
    assert isinstance(nodes, int)
    assert 201 <= nodes <= cap


@pytest.mark.parametrize("skew", [0.0, 3.0, -3.0])
def test_node_count_grows_to_the_cap_with_skew(skew):
    # The skew-normal's characteristic function narrows as |skew| grows, so
    # the count rises with it and reaches the cap in the half-normal limit.
    dist = DetuningDistribution(kind="skewed_gaussian", sigma=khz_to_angular(8.0))
    counts = [ensemble.quadrature_node_count(replace(dist, skew=math.copysign(a, skew or 1.0)),
                                             OMEGA0, 1.0, 8.0, 2001)
              for a in (abs(skew), 10.0, 100.0, 1e4, 1e200)]
    assert counts == sorted(counts)
    assert counts[-2:] == [2001, 2001]


def test_multilevel_and_empirical_rules_keep_their_nodes():
    # One rule for both atom models; the five-level count's phase term is
    # four times the two-level one (FREQUENCY_SLOPES), 2 h sigma 4 t_end + 21.9
    # = 531.8 at sigma 8 kHz over 0-0.996 ms.
    two = _config(8.0, delta_khz=3.0)
    assert ensemble._signal_rule(two, TIMES[-1])[0].size == 201
    multi = replace(two, atom_model=AtomModel(kind="multilevel"))
    assert ensemble._signal_rule(multi, TIMES[-1])[0].size == 533
    empirical = EnsembleConfig(drive=two.drive, distribution=DetuningDistribution(
        kind="empirical", shifts=np.arange(7.0), weights=np.ones(7)))
    assert ensemble._signal_rule(empirical, TIMES[-1])[0].size == 7


@pytest.mark.parametrize("field", ["gamma", "quadratic_shift"])
@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
def test_atom_model_refuses_negative_and_non_finite_rates(field, value):
    # Unrefused, a NaN gamma would run undamped (the kernels branch on
    # gamma > 0 and gamma == 0) and an infinite one write NaN at t = 0.
    for kind in ("analytic_two_level", "multilevel"):
        with pytest.raises(ValueError, match=f"^{field} must be finite and non-negative"):
            AtomModel(kind=kind, **{field: value})


def _five_level_sum(config, shifts, weights, times):
    model = config.atom_model
    return sum(weight * p1_multilevel(config.drive, shift, model.quadratic_shift,
                                      model.gamma, times).values
               for shift, weight in zip(shifts, weights))


@pytest.mark.parametrize("quadratic_shift_khz, gamma_khz, two_level_misses", [
    pytest.param(25.0, 0.0, True, id="q25-undamped"),
    pytest.param(250.0, 2.0, False, id="q250-damped"),
])
def test_sized_five_level_rule_matches_reference(quadratic_shift_khz, gamma_khz,
                                                 two_level_misses):
    # The five-level rule, sized with the slope bound 4, against a sum over
    # the 2,001-node rule. The two-level count (201 nodes here) undersamples
    # the five-level phases: on the undamped case it misses by 6.7e-3.
    config = EnsembleConfig(
        drive=DriveParams(omega0=OMEGA0, delta=0.0),
        distribution=DetuningDistribution(kind="gaussian", sigma=khz_to_angular(9.0)),
        atom_model=AtomModel(kind="multilevel", gamma=khz_to_angular(gamma_khz),
                             quadratic_shift=khz_to_angular(quadratic_shift_khz)))
    times = np.arange(0.0, 1.0 + 0.004, 0.008)
    sigma, half_width = config.distribution.sigma, config.support_half_width
    reference = _five_level_sum(config, *ensemble._parametric_rule(sigma, 0.0, 2001, half_width),
                                times)
    assert ensemble._signal_rule(config, times[-1])[0].size == 599
    values = ensemble_signal(config, times).values
    assert np.max(np.abs(values - reference)) < 1e-13
    if two_level_misses:
        nodes = ensemble.quadrature_node_count(config.distribution, OMEGA0, times[-1],
                                               half_width, 2001)
        two_level = _five_level_sum(
            config, *ensemble._parametric_rule(sigma, 0.0, nodes, half_width), times)
        assert np.max(np.abs(two_level - reference)) > 1e-3


# The skews on both sides of every change of the cap rule's mass verdict
# between skew 0 and 400 (in steps of 1) at these half-widths and caps, and
# near half-normal shapes; negated too.
_VERDICT_SKEWS = (0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 11.0, 12.0, 23.0, 24.0, 25.0, 33.0, 34.0,
                  43.0, 44.0, 51.0, 52.0, 53.0, 54.0, 65.0, 66.0, 69.0, 70.0, 94.0, 95.0,
                  96.0, 101.0, 102.0, 103.0, 104.0, 131.0, 132.0, 224.0, 225.0, 276.0,
                  277.0, 378.0, 379.0, 400.0, 1e4, 1e6)


def test_sized_rule_passes_the_mass_check_exactly_when_the_cap_rule_does():
    # The sized rule is the one a run sums and the one parse_scenario
    # checks, so nothing falls back to the cap: a grid the sized rule
    # rejects, the cap would reject too, and one it accepts, the cap
    # would accept. The count is as small as the shape allows at t_end = 0
    # (omega0 far above sigma) and grows with the trace toward the cap.
    def passes(skew, nodes, half_width):
        try:
            ensemble._parametric_rule(1.0, skew, nodes, half_width)
        except QuadratureSupportError:
            return False
        return True

    verdicts = {}
    sized = 0
    for skew in _VERDICT_SKEWS + tuple(-a for a in _VERDICT_SKEWS[1:]):
        dist = DetuningDistribution(kind="skewed_gaussian", sigma=1.0, skew=skew)
        for half_width in (5.0, 5.5, 6.0, 7.0, 8.0, 10.0, 12.0, 20.0, 40.0):
            for cap in (201, 401, 2001, 20001):
                on_cap = passes(skew, cap, half_width)
                verdicts[on_cap] = verdicts.get(on_cap, 0) + 1
                for t_end in (0.0, 100.0, 1000.0):
                    nodes = ensemble.quadrature_node_count(dist, 1e12, t_end, half_width,
                                                           cap)
                    if nodes < cap:
                        sized += 1
                        assert passes(skew, nodes, half_width) == on_cap, \
                            (skew, half_width, cap, t_end, nodes)
    # Both verdicts occur, and over a thousand checks compare a rule below
    # the cap.
    assert verdicts[True] > 100 and verdicts[False] > 100
    assert sized > 1000


def test_gregory_end_weights():
    # The interior weights are the step times the density and the three at
    # each end 3/8, 7/6 and 23/24 of that, up to one normalisation by the
    # captured mass.
    sigma, nodes = khz_to_angular(8.0), 201
    shifts, weights = ensemble._parametric_rule(sigma, 0.0, nodes, 8.0)
    plain = (shifts[1] - shifts[0]) * skewed_gaussian_density(sigma, 0.0, shifts)
    ratio = weights / plain
    ratio /= ratio[nodes // 2]
    np.testing.assert_allclose(ratio[:4], [3 / 8, 7 / 6, 23 / 24, 1.0], rtol=1e-14)
    np.testing.assert_allclose(ratio[-4:], [1.0, 23 / 24, 7 / 6, 3 / 8], rtol=1e-14)
    np.testing.assert_allclose(ratio[3:-3], 1.0, rtol=1e-14)


def test_sigma_zero_reduces_to_homogeneous():
    for delta_khz, gamma_khz in ((0.0, 0.0), (6.0, 1.0)):
        cfg = _config(0.0, delta_khz=delta_khz, gamma_khz=gamma_khz)
        trace = ensemble_signal(cfg, TIMES)
        expected = p1_two_level_damped(
            cfg.drive, 0.0, TIMES, cfg.atom_model.gamma
        )
        assert np.max(np.abs(trace.values - expected)) < 1e-14


def test_node_doubling_converged():
    # The sized rule against a rule forced to 4001 nodes on the same support.
    config = _config(8.0, delta_khz=5.0)
    a = ensemble_signal(config, TIMES)
    shifts, weights = ensemble._parametric_rule(config.distribution.sigma, 0.0, 4001,
                                                config.support_half_width)
    b = ensemble._two_level_sum(config.drive, shifts, weights, 0.0, TIMES,
                                *uniform_grid(TIMES))
    assert len(ensemble._signal_rule(config, TIMES[-1])[0]) < 4001
    assert np.max(np.abs(a.values - b)) < 1e-8


def test_gaussian_signal_symmetric_in_detuning():
    plus = ensemble_signal(_config(8.0, delta_khz=7.0), TIMES)
    minus = ensemble_signal(_config(8.0, delta_khz=-7.0), TIMES)
    assert np.max(np.abs(plus.values - minus.values)) < 1e-10


def test_long_time_signal_settles_to_weighted_offset():
    """After dephasing the signal sits at the average of the per-atom offsets."""
    # 40 ms at sigma 18 kHz needs 11,542 nodes
    cfg = _config(18.0, delta_khz=4.0, quadrature_nodes=11542)
    times = np.arange(0.0, 40.0, 0.004)
    trace = ensemble_signal(cfg, times)
    shifts, weights = ensemble._signal_rule(cfg, times[-1])
    omega_r = np.hypot(cfg.drive.omega0, cfg.drive.delta + shifts)
    expected = float(weights @ (0.5 * (cfg.drive.omega0 / omega_r) ** 2))
    late = trace.values[times > 35.0]
    assert np.mean(late) == pytest.approx(expected, abs=1e-4)


def _empirical_config(shifts_khz, weights, delta_khz=0.0):
    dist = DetuningDistribution(kind="empirical", shifts=khz_to_angular(np.asarray(shifts_khz)),
                                weights=np.asarray(weights))
    return EnsembleConfig(drive=DriveParams(omega0=OMEGA0, delta=khz_to_angular(delta_khz)),
                          distribution=dist)


def test_monte_carlo_same_seed_bit_identical():
    cfg = _config(8.0, delta_khz=3.0)
    a = monte_carlo_signal(cfg, TIMES, 10_000, seed=13)
    b = monte_carlo_signal(cfg, TIMES, 10_000, seed=13)
    assert np.array_equal(a.values, b.values)


def test_empirical_monte_carlo_same_seed_bit_identical():
    cfg = _empirical_config([-4.0, 0.0, 6.0], [0.3, 0.5, 0.2], delta_khz=3.0)
    a = monte_carlo_signal(cfg, TIMES, 10_000, seed=13)
    b = monte_carlo_signal(cfg, TIMES, 10_000, seed=13)
    assert np.array_equal(a.values, b.values)


def test_empirical_monte_carlo_sums_each_support_point_once(monkeypatch):
    # The drawn atoms take at most the support's shifts, so the kernel runs
    # once over the support, however many atoms are drawn.
    config = _oracle_configs(0.0)[2]
    support = config.distribution.shifts.size
    sizes = []
    real = ensemble._two_level_sum
    monkeypatch.setattr(ensemble, "_two_level_sum",
                        lambda drive, shifts, *args: sizes.append(shifts.size)
                        or real(drive, shifts, *args))
    for n in (1000, 46000, 200_000):
        sizes.clear()
        monte_carlo_signal(config, TIMES, n, seed=3)
        assert len(sizes) == 1 and sizes[0] <= support


def test_monte_carlo_undrawn_support_point_contributes_nothing():
    # A zero-weight point at resonance is never drawn: the estimate is the
    # one without it, where a single atom there would add about 1e-3.
    shifts, weights = [-4.0, 0.0, 6.0], [0.3, 0.5, 0.2]
    without = _empirical_config(shifts, weights, delta_khz=3.0)
    with_point = _empirical_config(shifts + [-3.0], weights + [0.0], delta_khz=3.0)
    draws = ensemble._support_draws(with_point.distribution, 1000, np.random.default_rng(4))
    assert draws.max() < 3
    a = monte_carlo_signal(without, TIMES, 1000, seed=4).values
    b = monte_carlo_signal(with_point, TIMES, 1000, seed=4).values
    assert np.max(np.abs(a - b)) < 1e-15


class _FixedDraws:
    """Stands in for a Generator: random(n) hands out the given draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)

    def random(self, n):
        assert n == self.draws.size
        return self.draws.copy()


def _binned_draws(dist, n, rng):
    return np.bincount(ensemble._support_draws(dist, n, rng), minlength=dist.shifts.size)


def test_support_counts_equal_the_binned_draws_around_zero_weight_points():
    # Zero weights first, inside and last leave runs of equal CDF values.
    weights = [0.0, 0.2, 0.0, 0.0, 0.5, 0.3, 0.0]
    dist = DetuningDistribution(kind="empirical", shifts=np.arange(7.0), weights=weights)
    for seed in range(5):
        counts = ensemble._support_counts(dist, 10_000, np.random.default_rng(seed))
        binned = _binned_draws(dist, 10_000, np.random.default_rng(seed))
        assert counts.dtype == binned.dtype
        assert np.array_equal(counts, binned)
        assert counts.sum() == 10_000 and not counts[[0, 2, 3]].any()


def test_support_counts_equal_the_binned_draws_at_the_cdf_values():
    # A draw equal to a CDF value belongs to the next point with weight,
    # after every zero-weight point sharing that value; draws one ulp to
    # either side, 0 and unsorted order are checked too.
    weights = [0.1, 0.0, 0.25, 0.0, 0.0, 0.4, 0.25]
    dist = DetuningDistribution(kind="empirical", shifts=np.arange(7.0), weights=weights)
    cdf = ensemble._support_cdf(dist)[:-1]
    draws = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), [0.0],
                            np.random.default_rng(8).random(50)])
    draws = draws[np.random.default_rng(9).permutation(draws.size)]
    counts = ensemble._support_counts(dist, draws.size, _FixedDraws(draws))
    assert np.array_equal(counts, _binned_draws(dist, draws.size, _FixedDraws(draws)))
    assert not counts[[1, 3, 4]].any()
    # cdf[0] = cdf[1]: the two draws at that value and the two one ulp above
    # it land on point 2.
    assert counts[2] >= 4


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
        for n_t in (8, 9, 126, 127, 1001):
            for t0 in (0.0, 0.37):
                times = t0 + 0.004 * np.arange(n_t)
                shifts, weights = ensemble._signal_rule(config, times[-1])
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
    shifts, weights = ensemble._parametric_rule(khz_to_angular(8.0), 0.0, 101, 8.0)
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
