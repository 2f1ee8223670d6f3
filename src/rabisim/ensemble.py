"""Ensemble averaging over a distribution of static detunings.

Each atom sees the drive with its own local detuning, drawn from a
distribution of Zeeman shifts; the measured signal is the
distribution-weighted average of the per-atom population. Both parametric
kinds are the skew-normal with mean 0 and std sigma (Azzalini, Scand. J.
Statist. 12, 1985), the Gaussian being its skew-0 member. For them the
average is the trapezoid rule on a uniform grid of shifts; it is the
reference implementation and Monte Carlo its independent cross-check.

Both sum two-level atoms through one kernel, `_two_level_sum`. On a grid of
T samples t_k = t0 + k dt it writes k = b q + r with b = ceil(sqrt(T)) and
splits each phase by angle addition,
1 - cos(a + c) = (1 - cos a) + cos a (1 - cos c) + sin a sin c, with
a = omega t0 + q omega b dt and c = r omega dt. The weighted sum over atoms
is then one matrix product of a table over q by one over r. Both are
complex rotation tables exp(i phase), each built from a single rotation
with one complex multiply per entry (`_rotations`), so each atom needs cos
and sin of three angles, omega t0, omega b dt and omega dt, whatever T is,
instead of cos and sin on each of about 2 sqrt(T) phases. The price is a
rounding error that grows as k eps along a table of k rows: at most about
3e-14 on the 317 rows of the longest grid a scenario may ask for
(T = 100,000).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import DriveParams, OscillationTrace, uniform_grid
from .multilevel import DEFAULT_QUADRATIC_SHIFT
from .units import khz_to_angular

_SQRT2PI = math.sqrt(2.0 * math.pi)
_erf = np.frompyfunc(math.erf, 1, 1)  # elementwise stdlib erf, object dtype out

_MC_CHUNK = 2500  # atoms per Monte Carlo chunk; see monte_carlo_signal

PARAMETRIC_KINDS = ("gaussian", "skewed_gaussian")
VALID_KINDS = PARAMETRIC_KINDS + ("empirical",)


class QuadratureSupportError(ValueError):
    """The quadrature support misses a non-negligible part of the distribution."""


def _skew_normal_params(sigma, skew):
    """Location xi, scale w and d = alpha / sqrt(1 + alpha^2) of the
    skew-normal with mean 0, std sigma and shape alpha = skew; hypot lets d
    reach +-1 (the half-normal limit) instead of overflowing to 0."""
    alpha = float(skew)
    d = alpha / math.hypot(1.0, alpha)
    w = sigma / math.sqrt(1.0 - 2.0 * d * d / math.pi)
    xi = -w * d * math.sqrt(2.0 / math.pi)
    return xi, w, d


def skewed_gaussian_density(sigma, skew, x):
    """Skew-normal density with mean 0 and standard deviation sigma.

    The shape parameter is the skew-normal alpha, taken directly from
    `skew`. skew = 0 is exactly the Gaussian of the gaussian kind; negative
    skew puts the long tail on the negative side (third moment < 0), and
    |skew| -> inf tends to a half-normal with the same mean and std.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=float)
    xi, w, _ = _skew_normal_params(sigma, skew)
    z = (x - xi) / w
    phi = np.exp(-0.5 * z * z) / _SQRT2PI
    with np.errstate(over="ignore"):  # erf(+-inf) = +-1 is the limit
        arg = float(skew) * z / math.sqrt(2.0)
    # asarray, not astype: a scalar x gives a float here, not an array.
    cdf = 0.5 * (1.0 + np.asarray(_erf(arg), dtype=float))
    return (2.0 / w) * phi * cdf


@dataclass(frozen=True)
class DetuningDistribution:
    """Distribution of local detuning shifts around the ensemble center.

    kind is one of gaussian, skewed_gaussian, empirical. The parametric
    kinds are one skew-normal family of spectral width sigma (angular,
    rad/ms) and shape skew (alpha), which the gaussian kind fixes at 0;
    they are centered so the mean shift is zero. Empirical kinds carry
    explicit (shift, weight) support and keep whatever reference their
    data came with. Weights are normalized to 1 on construction.
    """

    kind: str
    sigma: float = 0.0
    skew: float = 0.0
    shifts: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind in PARAMETRIC_KINDS:
            if self.sigma < 0:
                raise ValueError("sigma must be >= 0")
            if self.kind == "gaussian" and self.skew != 0.0:
                raise ValueError("the gaussian kind takes skew = 0")
            if self.shifts is not None or self.weights is not None:
                raise ValueError("parametric kinds take no explicit support")
            return
        if self.shifts is None or self.weights is None:
            raise ValueError("the empirical kind needs shifts and weights")
        shifts = np.asarray(self.shifts, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if shifts.ndim != 1 or shifts.shape != weights.shape or shifts.size == 0:
            raise ValueError("shifts and weights must be equal-length 1-d arrays")
        if not (np.all(np.isfinite(shifts)) and np.all(np.isfinite(weights))):
            raise ValueError("shifts and weights must be finite")
        if np.any(weights < 0):
            raise ValueError("empirical weights must be non-negative")
        total = float(weights.sum())
        if total <= 0:
            raise ValueError("empirical weights sum to zero")
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "weights", weights / total)

    @property
    def is_parametric(self) -> bool:
        return self.kind in PARAMETRIC_KINDS

    def mean_shift(self) -> float:
        if self.is_parametric:
            return 0.0
        return float(self.shifts @ self.weights)

    def std_shift(self) -> float:
        if self.is_parametric:
            return self.sigma
        m = self.mean_shift()
        return float(math.sqrt(((self.shifts - m) ** 2) @ self.weights))


@dataclass(frozen=True)
class AtomModel:
    """Which per-atom kernel the ensemble average uses.

    analytic_two_level evaluates the closed-form two-level population, with
    an optional homogeneous dephasing envelope exp(-gamma t / 2) on the
    oscillating part. multilevel runs the five-level density-matrix model,
    where gamma is the master-equation dephasing rate and quadratic_shift
    the isolation of the neighboring transition. gamma and quadratic_shift
    are angular (rad/ms).
    """

    kind: str = "analytic_two_level"
    gamma: float = 0.0
    quadratic_shift: float = DEFAULT_QUADRATIC_SHIFT

    def __post_init__(self):
        if self.kind not in ("analytic_two_level", "multilevel"):
            raise ValueError(f"unknown atom model kind {self.kind!r}")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")


@dataclass(frozen=True)
class EnsembleConfig:
    """Drive, distribution, per-atom kernel, and quadrature settings.

    quadrature_nodes and support_half_width (in units of sigma) control the
    trapezoid rule on a uniform shift grid used for parametric
    distributions; empirical distributions are summed over their explicit
    support instead.
    """

    drive: DriveParams
    distribution: DetuningDistribution
    atom_model: AtomModel = AtomModel()
    quadrature_nodes: int = 2001
    support_half_width: float = 8.0

    def __post_init__(self):
        if self.distribution.is_parametric:
            if self.quadrature_nodes < 201:
                raise ValueError("parametric distributions need at least 201 quadrature nodes")
            if self.support_half_width < 5.0:
                raise ValueError("quadrature support half-width must be at least 5 sigma")


def _quadrature(dist: DetuningDistribution, nodes, half_width):
    """Shifts and weights of the distribution average.

    For parametric kinds this is the trapezoid rule of `_parametric_rule`;
    empirical kinds are summed over their explicit support, and sigma = 0
    is the single shift 0.
    """
    if not dist.is_parametric:
        return dist.shifts, dist.weights
    if dist.sigma == 0.0:
        return np.zeros(1), np.ones(1)
    return _parametric_rule(dist.sigma, dist.skew, int(nodes), half_width)


@functools.lru_cache(maxsize=32)
def _parametric_rule(sigma, skew, nodes, half_width):
    """The trapezoid rule on `nodes` evenly spaced shifts over
    [-h sigma, +h sigma], h = half_width, around the (zero) mean shift.

    The integrand (a smooth density times a Lorentzian amplitude times a
    phase analytic in a strip of half-width omega0) makes the rule converge
    exponentially in the node count down to its endpoint term, which scales
    with the density at +-h sigma (Trefethen & Weideman, SIAM Review 56,
    2014). The total captured mass must account for the whole distribution
    to within 1e-6 or the rule is rejected. The miss comes from a support
    too narrow for the tail or, at large |skew|, from nodes too coarse for
    the near-step of the density at its mode.

    The rule depends on the distribution, not on the drive, so it is built
    once per distribution and shared read-only by every call. A rejected
    rule is not cached: lru_cache keeps no exceptions, so each call raises.
    """
    half = half_width * sigma
    shifts = np.linspace(-half, half, nodes)
    weights = (2.0 * half / (shifts.size - 1)) * skewed_gaussian_density(sigma, skew, shifts)
    weights[[0, -1]] *= 0.5
    mass = float(weights.sum())
    if abs(1.0 - mass) > 1e-6:
        raise QuadratureSupportError(
            f"the trapezoid rule on {shifts.size} nodes over +-{half_width:g} sigma "
            f"misses {abs(1.0 - mass):.2e} of the distribution mass (> 1e-6)"
        )
    weights /= mass
    shifts.flags.writeable = weights.flags.writeable = False
    return shifts, weights


def _rotations(step, n, phase=0.0):
    """exp(i (phase + k step)) for k = 0 .. n-1, as an (n, M) complex table
    for M = step.size angles.

    Row 0 is exp(i phase). Rows [m, 2m) are rows [0, m) times the turn
    exp(i m step), one complex multiply per entry, and the turn is squared
    in place for the next pass, so the table costs one cos/sin pair of phase
    and one of step, and log2(n) passes. Every pass adds its rounding to the
    rows it writes and every squaring doubles the error of the turn, so row
    k is within about k eps of the cos and sin of the float64 angles (0.35 k
    eps measured for k < 317 and |step| from 1e-6 to 1e3).
    """
    table = np.empty((n, step.size), dtype=complex)
    table[0].real = np.cos(phase)
    table[0].imag = np.sin(phase)
    turn = np.empty(step.size, dtype=complex)
    turn.real = np.cos(step)
    turn.imag = np.sin(step)
    m = 1
    while m < n:
        k = min(m, n - m)
        np.multiply(table[:k], turn, out=table[m:m + k])
        turn *= turn
        m *= 2
    return table


def _two_level_sum(drive: DriveParams, shifts, coef, gamma, times, t0, dt):
    """Sum over atoms of coef_i p1_i(t), the two-level populations
    p1_i(t) = 0.5 A_i (1 - exp(-gamma t / 2) cos(omega_i t)).

    coef is one coefficient per shift, or a scalar for all of them. times
    is the uniform grid t0 + k dt that the caller has validated, from which
    the envelope is taken. With b = ceil(sqrt(T)) and k = b q + r
    (0 <= r < b) the phase omega t_k splits into a_q = omega t0 + q omega b dt
    and c_r = r omega dt, and angle addition gives

        1 - cos(a + c) = (1 - cos a) + cos a (1 - cos c) + sin a sin c.

    With w_i = 0.5 A_i coef_i the undamped sum S(t_k) = sum_i w_i (1 - cos)
    is therefore the (q, r) entry of one matrix product plus a row term,

        S[q, r] = sum_i w_i (1 - cos a_iq)
                  + [w cos a | w sin a] (Q x 2N) @ [1 - cos c | sin c]^T (2N x b),

    and no N x T array is formed. The (Q, N) and (b, N) complex rotation
    tables come from `_rotations`, one complex multiply per entry, so each
    atom costs three cos/sin pairs (omega t0, omega b dt and omega dt)
    instead of one pair on each of Q + b ~ 2 sqrt(T) phases. The product
    runs on the tables' float views, whose re/im columns interleave, after
    the rhs real parts become 1 - cos c and the lhs is scaled by w. The
    price is an error of about sqrt(T) eps in each table entry, at most
    about 3e-14 at T = 100,000, the longest grid a scenario may ask for.
    At t0 = 0, row 0 of both tables is exactly 1 + 0j, so S is exactly
    0 at t = 0. The envelope enters as C (1 - env) + env S with
    C = sum_i w_i.
    """
    n_t = times.size
    b = math.isqrt(n_t - 1) + 1
    n_q = -(-n_t // b)
    omega_r = np.hypot(drive.omega0, drive.delta + shifts)
    w = coef * (0.5 * (drive.omega0 / omega_r) ** 2)
    lhs = _rotations(omega_r * (b * dt), n_q, omega_r * t0)
    rhs = _rotations(omega_r * dt, b)
    np.subtract(1.0, rhs.real, out=rhs.real)
    row = (1.0 - lhs.real) @ w
    lhs *= w
    total = row[:, None] + lhs.view(float) @ rhs.view(float).T
    total = total.reshape(-1)[:n_t]
    if gamma > 0:
        envelope = np.exp(-0.5 * gamma * times)
        total = w.sum() * (1.0 - envelope) + envelope * total
    return total


def ensemble_signal(config: EnsembleConfig, times) -> OscillationTrace:
    """Distribution-averaged population signal on a uniform time grid."""
    times = np.asarray(times, dtype=float)
    shifts, weights = _quadrature(config.distribution, config.quadrature_nodes,
                                  config.support_half_width)
    t0, dt = uniform_grid(times)
    model = config.atom_model
    if model.kind == "analytic_two_level":
        values = _two_level_sum(config.drive, shifts, weights, model.gamma, times, t0, dt)
    else:
        from .multilevel import p1_multilevel

        values = np.zeros_like(times)
        for shift, weight in zip(shifts, weights):
            trace = p1_multilevel(config.drive, shift, model.quadratic_shift,
                                  model.gamma, times)
            values += weight * trace.values
    return OscillationTrace(t0=t0, dt=dt, values=values)


def _sample_shifts(dist: DetuningDistribution, n, rng):
    if dist.is_parametric:
        # x = d |z0| + sqrt(1 - d^2) z1 is skew-normal with shape d. z1 is
        # drawn first, so at d = 0 the shifts are bitwise rng.normal(0, sigma, n).
        xi, w, d = _skew_normal_params(dist.sigma, dist.skew)
        z1 = rng.normal(size=n)
        z0 = rng.normal(size=n)
        return xi + w * (d * np.abs(z0) + math.sqrt(1.0 - d * d) * z1)
    # Empirical: inverse CDF over the discrete support.
    cdf = np.cumsum(dist.weights)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    return dist.shifts[np.clip(idx, 0, dist.shifts.size - 1)]


def monte_carlo_signal(config: EnsembleConfig, times, n_samples, seed=0) -> OscillationTrace:
    """Monte Carlo estimate of ensemble_signal.

    Unbiased and bit-deterministic for a fixed seed: the samples are summed
    in fixed chunks of _MC_CHUNK = 2500 atoms, so the summation order does
    not depend on n_samples' factorization. The chunk is that small so a
    chunk's two rotation tables, 2500 x 16 bytes per row, stay in a
    typical L2 cache: about 0.9 MB on a 126-sample grid, where 20,000 atoms
    took about 7 MB and about 1.7 times as long. Only the analytic atom model
    is supported; the density-matrix kernel would make sampling noise the
    least of the costs.
    """
    n_samples = int(n_samples)
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    if config.atom_model.kind != "analytic_two_level":
        raise ValueError("monte_carlo_signal supports the analytic_two_level atom model only")
    times = np.asarray(times, dtype=float)
    t0, dt = uniform_grid(times)
    rng = np.random.default_rng(seed)
    samples = _sample_shifts(config.distribution, n_samples, rng)
    gamma = config.atom_model.gamma
    acc = np.zeros_like(times)
    for start in range(0, n_samples, _MC_CHUNK):
        acc += _two_level_sum(config.drive, samples[start:start + _MC_CHUNK], 1.0, gamma,
                              times, t0, dt)
    return OscillationTrace(t0=t0, dt=dt, values=acc / n_samples)


def load_empirical_distribution(path) -> DetuningDistribution:
    """Read an empirical distribution from a two-column text file.

    Columns are shift_kHz and weight, whitespace or comma separated; '#'
    starts a comment. Weights need not be pre-normalized.
    """
    shifts_khz = []
    weights = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: expected two columns, got {len(parts)}")
            try:
                shifts_khz.append(float(parts[0]))
                weights.append(float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
    if not shifts_khz:
        raise ValueError(f"{path}: no data rows")
    return DetuningDistribution(
        kind="empirical",
        shifts=khz_to_angular(np.asarray(shifts_khz)),
        weights=np.asarray(weights),
    )
