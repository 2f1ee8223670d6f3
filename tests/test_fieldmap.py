import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rabisim.fieldmap import (
    AxisProfile,
    FieldGridModel,
    FieldHistogram,
    ProbeBeam,
    field_magnitude_histogram,
    histogram_to_distribution,
)
from rabisim.units import angular_to_khz

B_SET = 18167.0


def _model(profiles, sign=1, **kwargs):
    return FieldGridModel(b_set=B_SET, profiles=profiles, current_sign=sign, **kwargs)


def _skewed_profiles(scale=1.0):
    # transverse gradient plus an axial bump, enough structure for an
    # asymmetric magnitude distribution
    return {
        "b0x": AxisProfile(kind="piecewise_linear", nodes=((-8.0, -2.0 * scale), (8.0, 3.0 * scale))),
        "b0z": AxisProfile(kind="polynomial", coefficients=(0.5, 0.1, -0.02)),
        "b1z": AxisProfile(kind="piecewise_linear", nodes=((-20.0, -1.0), (0.0, 4.0), (20.0, 0.5))),
    }


def _both_gradient_profiles():
    # transverse gradients along x and y, as in fig8, give 1,087 distinct
    # u = dx^2 + dy^2 over the 33 x 33 plane of 1,089 points
    return {
        "b0x": AxisProfile(kind="piecewise_linear", nodes=((-8.0, -0.4), (8.0, 0.5))),
        "b0y": AxisProfile(kind="piecewise_linear", nodes=((-8.0, 0.3), (8.0, -0.25))),
        "b0z": AxisProfile(kind="polynomial", coefficients=(0.5, 0.1, -0.02)),
    }


def test_profile_evaluation():
    const = AxisProfile(kind="constant", value=0.4)
    assert np.allclose(const(np.array([-5.0, 0.0, 5.0])), 0.4)
    lin = AxisProfile(kind="piecewise_linear", nodes=((-8.0, -0.4), (8.0, 0.4)))
    assert lin(0.0) == pytest.approx(0.0)
    assert lin(4.0) == pytest.approx(0.2)
    poly = AxisProfile(kind="polynomial", coefficients=(1.0, 0.0, 2.0))
    assert poly(3.0) == pytest.approx(1.0 + 2.0 * 9.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        AxisProfile(kind="spline")
    with pytest.raises(ValueError):
        AxisProfile(kind="piecewise_linear", nodes=((0.0, 1.0),))
    with pytest.raises(ValueError):
        AxisProfile(kind="piecewise_linear", nodes=((1.0, 0.0), (1.0, 2.0)))
    with pytest.raises(ValueError):
        AxisProfile(kind="polynomial", coefficients=())


def test_model_validation():
    with pytest.raises(ValueError):
        _model({"b0q": AxisProfile(kind="constant", value=0.1)})
    with pytest.raises(ValueError):
        _model({"b0x": AxisProfile(kind="constant", value=0.1)}, sign=0)
    with pytest.raises(ValueError):
        FieldGridModel(b_set=-1.0, profiles={}, current_sign=1)
    # a profile exceeding the declared bound must be rejected outright
    with pytest.raises(ValueError):
        _model(
            {"b0x": AxisProfile(kind="constant", value=9.0)},
            max_deviation_khz=8.0,
        )


def test_beam_validation_and_weights():
    with pytest.raises(ValueError):
        ProbeBeam(profile="donut")
    with pytest.raises(ValueError):
        ProbeBeam(diameter=0.0)
    flat = ProbeBeam(profile="flat_top", diameter=12.0)
    x = np.array([0.0, 5.0, 7.0])
    w = flat.weight_xy(x, x)
    assert w.shape == (3, 3)
    assert w[0, 0] == 1.0
    assert w[2, 2] == 0.0  # radius sqrt(98) > 6
    gauss = ProbeBeam(profile="gaussian", diameter=12.0)
    wg = gauss.weight_xy(np.array([0.0, 6.0]), np.array([0.0]))
    assert wg[0, 0] == pytest.approx(1.0)
    assert wg[1, 0] == pytest.approx(math.exp(-2.0))


def test_uniform_deviation_collapses_to_single_bin():
    model = _model({"b0z": AxisProfile(kind="constant", value=2.5)})
    hist = field_magnitude_histogram(model, ProbeBeam(), n_bins=40)
    assert hist.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(hist.weights) == 1
    # statistics come from the bins, so the mean sits at a bin center,
    # within half a bin width of the true deviation
    assert hist.mean_khz == pytest.approx(2.5, abs=0.02)
    assert hist.std_khz == pytest.approx(0.0, abs=1e-12)


def test_histogram_weight_normalization():
    hist = field_magnitude_histogram(_model(_skewed_profiles()), ProbeBeam(), n_bins=80)
    assert hist.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert hist.fraction_below + hist.fraction_above == pytest.approx(1.0, abs=1e-12)


def test_component_evaluation_matches_profiles():
    model = _model(_skewed_profiles())
    xy = model.axis_grid("xy")
    z = model.axis_grid("z")
    profiles = model.profiles
    assert np.allclose(model.component("b0x", xy), profiles["b0x"](xy))
    assert np.allclose(model.component("b0z", z), profiles["b0z"](z))
    # absent keys contribute exactly zero
    assert np.array_equal(model.component("b1y", xy), np.zeros_like(xy))


def test_missing_profiles_default_to_zero():
    model = _model({})
    hist = field_magnitude_histogram(model, ProbeBeam(), n_bins=10)
    assert hist.mean_khz == pytest.approx(0.0, abs=0.06)
    assert hist.std_khz == pytest.approx(0.0, abs=1e-12)


def test_current_sign_flips_third_moment():
    # with no static background the deviation is current-generated only,
    # so reversing the current mirrors the distribution along z
    profiles = {
        "b1z": AxisProfile(
            kind="piecewise_linear", nodes=((-20.0, -1.0), (0.0, 4.0), (20.0, 0.5))
        ),
        "b1x": AxisProfile(kind="constant", value=0.1),
    }
    plus = field_magnitude_histogram(_model(profiles), ProbeBeam())
    import dataclasses

    minus = field_magnitude_histogram(
        dataclasses.replace(_model(profiles), current_sign=-1), ProbeBeam()
    )
    assert plus.third_moment * minus.third_moment < 0
    assert abs(plus.third_moment) > 0.05
    assert plus.third_moment == pytest.approx(-minus.third_moment, rel=1e-3)


def test_bin_count_stability():
    model = _model(_skewed_profiles())
    coarse = field_magnitude_histogram(model, ProbeBeam(), n_bins=60)
    fine = field_magnitude_histogram(model, ProbeBeam(), n_bins=240)
    assert coarse.mean_khz == pytest.approx(fine.mean_khz, abs=0.01 * max(1.0, abs(fine.mean_khz)))
    assert coarse.std_khz == pytest.approx(fine.std_khz, rel=0.01)


def test_narrow_beam_sees_less_transverse_spread():
    profiles = {"b0x": AxisProfile(kind="piecewise_linear", nodes=((-8.0, -4.0), (8.0, 4.0)))}
    wide = field_magnitude_histogram(_model(profiles), ProbeBeam(profile="gaussian", diameter=12.0))
    narrow = field_magnitude_histogram(_model(profiles), ProbeBeam(profile="gaussian", diameter=4.0))
    assert narrow.std_khz < wide.std_khz


def test_beam_outside_grid_raises():
    model = _model({}, bounds_xy=(-8.0, 8.0))
    tiny = ProbeBeam(profile="flat_top", diameter=0.1)
    # a 0.1 mm disk misses every 0.5 mm grid point except the origin,
    # which it does contain, so this must still work
    hist = field_magnitude_histogram(model, tiny, n_bins=5)
    assert hist.weights.sum() == pytest.approx(1.0)


def test_histogram_to_distribution_negates_and_sorts():
    hist = FieldHistogram(
        bin_centers_khz=np.array([-1.0, 0.5, 2.0]),
        weights=np.array([0.2, 0.0, 0.8]),
        mean_khz=1.4,
        std_khz=1.2,
        fraction_below=0.2,
        fraction_above=0.8,
        third_moment=-0.5,
    )
    dist = histogram_to_distribution(hist)
    assert dist.kind == "empirical"
    # zero-weight bin dropped, larger field maps to lower detuning
    assert np.allclose(angular_to_khz(dist.shifts), [-2.0, 1.0])
    assert np.allclose(dist.weights, [0.8, 0.2])


def test_grid_spacing_and_bounds():
    model = _model({}, spacing=0.5, spacing_z=0.1, bounds_xy=(-8.0, 8.0), bounds_z=(-20.0, 20.0))
    xy = model.axis_grid("xy")
    z = model.axis_grid("z")
    assert xy[0] == pytest.approx(-8.0)
    assert xy[-1] == pytest.approx(8.0)
    assert np.allclose(np.diff(xy), 0.5)
    assert np.allclose(np.diff(z), 0.1)
    assert z.size == 401


@pytest.mark.parametrize("low, high, step, size", [
    (-8.0, 8.0, 0.35, 46),   # round() placed a 47th node at 8.1 mm
    (-8.0, 8.0, 0.7, 23),    # and a 24th at 8.1 mm here
    (-20.0, 20.0, 0.1, 401),  # 40 / 0.1 is 400.00000000000006
    (0.0, 0.3, 0.1, 4),      # 3 * 0.1 is 0.30000000000000004
])
def test_axis_grid_stays_inside_its_bounds(low, high, step, size):
    model = _model({}, spacing=step, bounds_xy=(low, high))
    xy = model.axis_grid("xy")
    assert xy.size == size
    assert xy[0] == low and xy.max() <= high
    assert high - xy[-1] < step
    assert np.allclose(np.diff(xy), step)


def _one_call_histogram(model, beam, n_bins):
    # the full grid held whole and binned by one np.histogram call
    xy = model.axis_grid("xy")
    z = model.axis_grid("z")
    sign = model.current_sign
    dx = model.component("b0x", xy) + sign * model.component("b1x", xy)
    dy = model.component("b0y", xy) + sign * model.component("b1y", xy)
    dz = model.component("b0z", z) + sign * model.component("b1z", z)
    deviation = np.sqrt(dx[:, None, None] ** 2 + dy[None, :, None] ** 2
                        + (model.b_set + dz[None, None, :]) ** 2) - model.b_set
    w_xy = beam.weight_xy(xy, xy)
    weight = np.broadcast_to(w_xy[:, :, None] / (float(w_xy.sum()) * z.size),
                             deviation.shape)
    counts, edges = np.histogram(deviation.ravel(), bins=n_bins,
                                 weights=weight.ravel())
    return 0.5 * (edges[:-1] + edges[1:]), counts / counts.sum()


_CASES = {
    # 9 x 9 x 11 = 891 points, under one block
    "891": (_skewed_profiles(), dict(bounds_xy=(-8.0, 8.0), spacing=2.0, spacing_z=4.0)),
    # 16 x 16 x 256 = 65,536 points, exactly one block
    "65536": (_skewed_profiles(), dict(bounds_xy=(-7.5, 7.5), spacing=1.0,
                                       bounds_z=(-20.0, 19.84375), spacing_z=0.15625)),
    # 33 x 33 x 401 = 436,689 points, a partial last block
    "436689": (_skewed_profiles(), dict(spacing_z=0.1)),
    # every deviation equal, so numpy widens the range by +-0.5 kHz
    "uniform": ({"b0z": AxisProfile(kind="constant", value=2.5)}, dict(spacing_z=0.1)),
    # an axial sag alone, as in fig6-field: one u, spread over many bins
    "axial-sag": ({"b0z": AxisProfile(kind="polynomial",
                                      coefficients=(-1.575, -0.525, -0.04375))},
                  dict(spacing_z=0.1)),
    # both transverse gradients: (nearly) every u distinct
    "both-gradients": (_both_gradient_profiles(), dict(spacing_z=0.1)),
}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("case", sorted(_CASES))
@pytest.mark.parametrize("beam", [ProbeBeam(), ProbeBeam(profile="gaussian", diameter=10.0)],
                         ids=["flat_top", "gaussian"])
def test_blocked_histogram_equals_one_call(case, sign, beam):
    profiles, grid = _CASES[case]
    model = _model(profiles, sign=sign, **grid)
    hist = field_magnitude_histogram(model, beam, n_bins=120)
    centers, weights = _one_call_histogram(model, beam, 120)
    assert np.array_equal(hist.bin_centers_khz, centers)
    assert np.array_equal(hist.weights, weights)


@pytest.mark.parametrize("profiles", [_skewed_profiles(), _both_gradient_profiles()],
                         ids=["skewed", "both-gradients"])
def test_histogram_memory_flat_in_grid_size(profiles):
    # 33 x 33 x 2,001 points: the whole grid as float64 alone is 17 MB
    model = _model(profiles, spacing_z=0.02)
    assert model.axis_grid("z").size == 2001
    tracemalloc.start()
    try:
        field_magnitude_histogram(model, ProbeBeam(), n_bins=120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("model", [
    # +inf + (-inf) along z: a nan on part of the grid
    _model({"b0z": AxisProfile(kind="polynomial", coefficients=(0.0, 0.0, 1.0e306)),
            "b1z": AxisProfile(kind="polynomial", coefficients=(0.0, 0.0, -1.0e306))}),
    FieldGridModel(b_set=1.0e300, profiles={}),
], ids=["nan_grid", "b_set_overflow"])
def test_non_finite_deviation_raises_without_warning(model):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="field deviation is not finite on the grid"):
            field_magnitude_histogram(model, ProbeBeam())
