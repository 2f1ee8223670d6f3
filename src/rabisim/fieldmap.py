"""Spatial model of the static field over the cell and the probe-beam weighting.

The field is a nominal bias along z plus six small deviation profiles, each
varying along one axis only: a steady part (b0x, b0y, b0z) and a part that
flips with the coil current direction (b1x, b1y, b1z). All deviations are
expressed in kHz of equivalent Zeeman shift, so the magnitude

    |B_tot| = sqrt(dx^2 + dy^2 + (b_set + dz)^2),   d_j = b0_j + sign * b1_j

and the binned deviation |B_tot| - b_set feed straight into a detuning
distribution (a larger field means a lower detuning).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import DetuningDistribution
from .units import khz_to_angular

PROFILE_KEYS = ("b0x", "b0y", "b0z", "b1x", "b1y", "b1z")

# np.histogram's own block size (BLOCK in numpy/lib/_histograms_impl.py).
HIST_BLOCK = 65_536


@dataclass(frozen=True)
class AxisProfile:
    """Scalar deviation profile along one axis, in kHz versus mm.

    kind "constant" uses value; "piecewise_linear" interpolates nodes of
    (position_mm, value_khz) pairs; "polynomial" evaluates coefficients in
    ascending order of power of the position.
    """

    kind: str
    value: float = 0.0
    nodes: tuple = ()
    coefficients: tuple = ()

    def __post_init__(self):
        if self.kind not in ("constant", "piecewise_linear", "polynomial"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "piecewise_linear":
            nodes = tuple((float(p), float(v)) for p, v in self.nodes)
            if len(nodes) < 2:
                raise ValueError("piecewise_linear profile needs at least 2 nodes")
            positions = [p for p, _ in nodes]
            if any(b <= a for a, b in zip(positions, positions[1:])):
                raise ValueError("profile node positions must be strictly increasing")
            object.__setattr__(self, "nodes", nodes)
        if self.kind == "polynomial":
            coeffs = tuple(float(c) for c in self.coefficients)
            if not coeffs:
                raise ValueError("polynomial profile needs at least one coefficient")
            object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, positions):
        positions = np.asarray(positions, dtype=float)
        if self.kind == "constant":
            return np.full_like(positions, self.value)
        if self.kind == "piecewise_linear":
            xs = np.array([p for p, _ in self.nodes])
            ys = np.array([v for _, v in self.nodes])
            return np.interp(positions, xs, ys)
        # an overflow or inf - inf shows up as a non-finite deviation, which
        # field_magnitude_histogram and the deviation bound reject by name
        with np.errstate(over="ignore", invalid="ignore"):
            return np.polynomial.polynomial.polyval(positions, self.coefficients)


@dataclass(frozen=True)
class FieldGridModel:
    """Grid of field deviations over the cell volume.

    b_set is the nominal field magnitude in kHz; profiles maps the six
    component names (b0x, b0y, b0z, b1x, b1y, b1z) to AxisProfile
    deviations, missing entries meaning zero. current_sign selects the
    coil current direction. Bounds are mm, spacing is the grid step in mm
    (spacing_z overrides it along z when finer axial sampling is needed).
    max_deviation_khz, when set, bounds every profile's magnitude over its
    axis grid at construction time.
    """

    b_set: float
    profiles: dict = field(default_factory=dict)
    current_sign: int = 1
    bounds_xy: tuple = (-8.0, 8.0)
    bounds_z: tuple = (-20.0, 20.0)
    spacing: float = 0.5
    spacing_z: float | None = None
    max_deviation_khz: float | None = None

    def __post_init__(self):
        if not self.b_set > 0:
            raise ValueError("b_set must be positive")
        if self.current_sign not in (1, -1):
            raise ValueError("current_sign must be +1 or -1")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        if self.spacing_z is not None and not self.spacing_z > 0:
            raise ValueError("spacing_z must be positive")
        for bounds, label in ((self.bounds_xy, "bounds_xy"), (self.bounds_z, "bounds_z")):
            if len(bounds) != 2 or not bounds[1] > bounds[0]:
                raise ValueError(f"{label} must be an ordered (low, high) pair")
        unknown = set(self.profiles) - set(PROFILE_KEYS)
        if unknown:
            raise ValueError(f"unknown profile keys: {sorted(unknown)}")
        for key, profile in self.profiles.items():
            if not isinstance(profile, AxisProfile):
                raise ValueError(f"profile {key!r} must be an AxisProfile")
        if self.max_deviation_khz is not None:
            bound = float(self.max_deviation_khz)
            for key, profile in self.profiles.items():
                axis = self.axis_grid("z" if key.endswith("z") else "xy")
                worst = float(np.abs(profile(axis)).max())
                if worst > bound + 1e-9:
                    raise ValueError(
                        f"profile {key!r} reaches {worst:.3g} kHz, beyond the "
                        f"{bound:.3g} kHz deviation bound"
                    )

    def axis_grid(self, which):
        if which == "xy":
            low, high = self.bounds_xy
            step = self.spacing
        else:
            low, high = self.bounds_z
            step = self.spacing if self.spacing_z is None else self.spacing_z
        # Whole steps that fit in the span, keeping the endpoint when the
        # span is a whole number of steps to within rounding (40 / 0.1 is
        # 400.00000000000006); no node lies above high.
        n = int(np.floor((high - low) / step + 1e-9))
        return np.minimum(low + step * np.arange(n + 1), high)

    def component(self, key, positions):
        """Evaluate one deviation component (kHz) along its axis."""
        profile = self.profiles.get(key)
        positions = np.asarray(positions, dtype=float)
        if profile is None:
            return np.zeros_like(positions)
        return profile(positions)


@dataclass(frozen=True)
class ProbeBeam:
    """Transverse weighting of the detection beam, propagating along z.

    flat_top weights every point inside the diameter equally; gaussian
    uses intensity exp(-2 r^2 / w0^2) with waist w0 = diameter / 2.
    """

    profile: str = "flat_top"
    diameter: float = 12.0

    def __post_init__(self):
        if self.profile not in ("flat_top", "gaussian"):
            raise ValueError(f"unknown beam profile {self.profile!r}")
        if not self.diameter > 0:
            raise ValueError("beam diameter must be positive")

    def weight_xy(self, x, y):
        """Unnormalized weight on the transverse grid, shape (len(x), len(y))."""
        r2 = np.asarray(x, dtype=float)[:, None] ** 2 + np.asarray(y, dtype=float)[None, :] ** 2
        if self.profile == "flat_top":
            return (r2 <= (0.5 * self.diameter) ** 2).astype(float)
        w0 = 0.5 * self.diameter
        return np.exp(-2.0 * r2 / w0**2)


@dataclass(frozen=True)
class FieldHistogram:
    """Weighted histogram of |B_tot| - b_set in kHz, with moment summaries.

    Statistics are computed from the bins themselves (not the raw grid), so
    they respond to binning exactly the way the exported histogram does.
    fraction_below and fraction_above split the weight about the mean.
    """

    bin_centers_khz: np.ndarray
    weights: np.ndarray
    mean_khz: float
    std_khz: float
    fraction_below: float
    fraction_above: float
    third_moment: float

    def __post_init__(self):
        centers = np.asarray(self.bin_centers_khz, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if centers.shape != weights.shape or centers.ndim != 1 or centers.size == 0:
            raise ValueError("bin centers and weights must be equal-length 1-d arrays")
        if np.any(weights < 0):
            raise ValueError("histogram weights must be non-negative")
        object.__setattr__(self, "bin_centers_khz", centers)
        object.__setattr__(self, "weights", weights)


def _bin_statistics(centers, weights):
    mean = float(np.sum(weights * centers))
    var = float(np.sum(weights * (centers - mean) ** 2))
    std = math.sqrt(max(var, 0.0))
    below = float(np.sum(weights[centers < mean]))
    third = 0.0
    if std > 0:
        third = float(np.sum(weights * (centers - mean) ** 3)) / std**3
    return mean, std, below, 1.0 - below, third


def field_magnitude_histogram(model: FieldGridModel, beam: ProbeBeam,
                              n_bins=120) -> FieldHistogram:
    """Histogram of the field-magnitude deviation over the beam-weighted cell.

    Evaluates |B_0 + sign * B_1| - b_set over the grid, weights each point
    by the beam's transverse profile (uniform along z), and bins the
    deviations. Weights are normalized to unit total.

    The grid is never held whole. The separable terms u = dx^2 + dy^2 over
    the (x, y) plane and v = (b_set + dz)^2 along z give each point's
    deviation as sqrt(u + v) - b_set, so an (x, y) point enters only
    through its u. Correctly rounded +, sqrt and - are monotone, so the
    range is the deviation at (min u, min v) and at (max u, max v),
    bitwise the extremes of the full grid; a nan or an overflow anywhere
    makes one of them non-finite.

    The flattened grid, one row of z points per (x, y) point, is binned in
    blocks of HIST_BLOCK points, numpy's own block size. A block bins the
    deviation once per distinct u among its rows and z point it covers,
    with np.histogram's edges and rule, and then adds its points' weights
    into the bins in flat order with one bincount. Each bin thus adds its
    weights in the same order as one np.histogram call over the full grid
    would, and the counts match it bitwise while memory stays flat in the
    grid size. A field with no transverse part has one u, so a block
    computes one deviation per z point instead of one per grid point.
    """
    n_bins = int(n_bins)
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    xy = model.axis_grid("xy")
    z = model.axis_grid("z")
    sign = model.current_sign
    with np.errstate(over="ignore", invalid="ignore"):
        dx = model.component("b0x", xy) + sign * model.component("b1x", xy)
        dy = model.component("b0y", xy) + sign * model.component("b1y", xy)
        dz = model.component("b0z", z) + sign * model.component("b1z", z)
        u = (dx[:, None] ** 2 + dy[None, :] ** 2).ravel()
        v = (model.b_set + dz) ** 2
        lo, hi = (np.sqrt(np.array([u.min(), u.max()]) + np.array([v.min(), v.max()]))
                  - model.b_set)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("field deviation is not finite on the grid: "
                         f"b_set_khz ({model.b_set:.4g}) or a profile is too large")

    w_xy = beam.weight_xy(xy, xy)
    total = float(w_xy.sum()) * z.size
    if total <= 0:
        raise ValueError("beam weight vanishes on the entire grid")
    w = (w_xy / total).ravel()

    edges = np.histogram_bin_edges(np.array([lo, hi]), bins=n_bins, range=(lo, hi))
    # the bin i with edges[i] <= d < edges[i + 1], the last bin also taking
    # d = edges[-1]: np.histogram's own rule
    inner = edges[1:-1]
    counts = np.zeros(n_bins)
    size = u.size * v.size
    for start in range(0, size, HIST_BLOCK):
        n = min(HIST_BLOCK, size - start)
        r0, c0 = divmod(start, v.size)
        r1 = (start + n - 1) // v.size
        # The block covers m columns of rows r0..r1: the s from c0 on and,
        # when it is narrower than a row and wraps into the next, the m - s
        # from 0. Laid out as (rows, m) with the columns ascending, its
        # points are the contiguous run from offset m - s.
        m = min(v.size, n)
        s = min(m, v.size - c0)
        cols = np.r_[0:m - s, c0:c0 + s]
        # np.unique sorts u, so each column's deviations ascend: the order
        # in which searchsorted is fastest.
        u_block, row = np.unique(u[r0:r1 + 1], return_inverse=True)
        deviation = np.sqrt(v[cols][:, None] + u_block)
        deviation -= model.b_set
        bins = np.searchsorted(inner, deviation, side="right").T[row].ravel()
        weight = np.repeat(w[r0:r1 + 1], m)
        run = slice(m - s, m - s + n)
        counts += np.bincount(bins[run], weights=weight[run], minlength=n_bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    weights = counts / counts.sum()
    mean, std, below, above, third = _bin_statistics(centers, weights)
    return FieldHistogram(bin_centers_khz=centers, weights=weights,
                          mean_khz=mean, std_khz=std, fraction_below=below,
                          fraction_above=above, third_moment=third)


def histogram_to_distribution(hist: FieldHistogram) -> DetuningDistribution:
    """Convert a field-deviation histogram into an empirical detuning distribution.

    A positive field deviation lowers the detuning (the drive frequency sits
    fixed while the atomic splitting grows), so shifts are the negated bin
    centers, converted to angular units. Zero-weight bins are dropped.
    """
    keep = hist.weights > 0
    if not np.any(keep):
        raise ValueError("histogram has no weight")
    shifts = khz_to_angular(-hist.bin_centers_khz[keep])
    weights = hist.weights[keep]
    order = np.argsort(shifts)
    return DetuningDistribution(kind="empirical", shifts=tuple(shifts[order]),
                                weights=tuple(weights[order]))
