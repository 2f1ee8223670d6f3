"""Closed-form physics of a single driven two-level transition.

The workhorse quantities: the generalized Rabi frequency of a detuned atom,
its population oscillation, and the closed-form ensemble signal valid for a
narrow Gaussian spread of detunings. Frequencies are angular (rad/ms), times
in ms; see units.py for the boundary conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DriveParams:
    """Drive of the measured transition.

    omega0 is the bare Rabi frequency and delta the detuning of the drive
    from the central resonance of the ensemble, both angular (rad/ms).
    Red detuning is negative, blue positive.
    """

    omega0: float
    delta: float = 0.0

    def __post_init__(self):
        if not self.omega0 > 0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")


@dataclass(frozen=True)
class OscillationTrace:
    """Uniformly sampled real-valued signal; sample k sits at t0 + k*dt (ms)."""

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.values.ndim != 1 or self.values.size < 8:
            raise ValueError("a trace needs at least 8 uniformly spaced samples")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.values.size)

    @classmethod
    def from_times(cls, times, values) -> "OscillationTrace":
        t0, dt = uniform_grid(times)
        return cls(t0=t0, dt=dt, values=values)

    def __len__(self) -> int:
        return self.values.size


def uniform_grid(times) -> tuple[float, float]:
    """Start t0 and spacing dt of a uniform, increasing time grid.

    dt is the span over the steps, (times[-1] - times[0]) / (T - 1), so
    t0 + k dt stays on the given times at every k; the first difference
    would carry the rounding of t0 and drift from them as k grows. Raises
    ValueError for an empty grid, a single sample, or spacings that differ
    from dt by more than 1e-9 dt.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("empty time grid")
    if times.size < 2:
        raise ValueError("need at least two sample times")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the check
        dt = float(times[-1] - times[0]) / (times.size - 1)
        uniform = dt > 0 and np.all(np.abs(np.diff(times) - dt) <= 1e-9 * dt)
    if not uniform:
        raise ValueError("sample times must be uniformly spaced and increasing")
    return float(times[0]), dt


def generalized_rabi(drive: DriveParams, local_shift=0.0):
    """Oscillation frequency sqrt(omega0^2 + delta^2) of a shifted atom.

    local_shift is the extra detuning of this atom relative to the ensemble
    center, so its total detuning is drive.delta + local_shift. Accepts
    arrays for local_shift.
    """
    return np.hypot(drive.omega0, drive.delta + local_shift)


def p1_two_level(drive: DriveParams, local_detuning=0.0, t=0.0):
    """Population transferred to the lower level of a driven two-level atom.

    local_detuning shifts this atom on top of drive.delta. Returns
    (omega0/omega_r)^2 sin^2(omega_r t / 2), which caps at the Lorentzian
    1/(1 + delta^2/omega0^2).
    """
    t = np.asarray(t, dtype=float)
    omega_r = generalized_rabi(drive, local_detuning)
    amp = (drive.omega0 / omega_r) ** 2
    return amp * np.sin(0.5 * omega_r * t) ** 2


def p1_two_level_damped(drive: DriveParams, local_detuning, t, gamma):
    """p1_two_level with a homogeneous dephasing envelope exp(-gamma t / 2).

    gamma is the dephasing rate (rad/ms equivalents, numerically 1/ms); the
    factor 1/2 is the usual share of the coherence decay seen by the
    population oscillation. It keeps the mean at amp / 2, which a dephased
    atom does not: at omega0 9 kHz and gamma 1 kHz over 0-1 ms, one atom
    differs from multilevel.p1_multilevel at a 1e5 kHz quadratic shift, the
    reference, by up to 0.026, 0.247 and 0.289 at delta 0, 9 and 18 kHz.
    """
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and non-negative, got {gamma}")
    t = np.asarray(t, dtype=float)
    omega_r = generalized_rabi(drive, local_detuning)
    amp = (drive.omega0 / omega_r) ** 2
    return 0.5 * amp * (1.0 - np.exp(-0.5 * gamma * t) * np.cos(omega_r * t))


def analytic_small_sigma_signal(drive: DriveParams, sigma, times, order=2) -> OscillationTrace:
    """Closed-form ensemble signal for a narrow Gaussian detuning spread.

    Each atom at shift x contributes (A(x)/2) (1 - cos(Omega_R(x) t)) with
    A(x) = (Omega0/Omega_R(x))^2, averaged over x ~ N(0, sigma^2).

    order=1 is the first-order form, with Omega_R(x) = Omega_R + a x and a
    constant amplitude:

        S(t) = [1 / (2 (1 + Delta^2/Omega0^2))]
               * (1 - cos(Omega_R t) exp(-sigma^2 Delta^2 t^2 / (2 Omega_R^2)))

    The oscillation sits at the central generalized Rabi frequency and decays
    with the Gaussian rate sigma |Delta| / Omega_R; on resonance it does not
    decay at all.

    order=2 (the default) also keeps the curvature of the generalized Rabi
    frequency and the shift dependence of the amplitude:

        Omega_R(x) = Omega_R + a x + b x^2,  a = Delta/Omega_R,
                                             b = Omega0^2 / (2 Omega_R^3)
        A(x) = A0 (1 + c1 x + c2 x^2),       A0 = (Omega0/Omega_R)^2,
               c1 = -2 Delta/Omega_R^2,      c2 = (3 Delta^2 - Omega0^2)/Omega_R^4

    The Gaussian average of exp(i b t x^2) is a Gaussian with the complex
    variance s^2 = sigma^2 / (1 - 2 i b t sigma^2), so with k = a t

        S(t) = (A0/2) (1 + c2 sigma^2)
               - (A0/2) Re[ exp(i Omega_R t) (s/sigma) exp(-k^2 s^2 / 2)
                            (1 + i c1 k s^2 + c2 (s^2 - k^2 s^4)) ]

    On resonance this decays algebraically, as |1 - 2 i b t sigma^2|^(-1/2).
    Both orders are approximations valid for sigma much smaller than omega0;
    the caller owns that judgement and nothing is enforced beyond
    sigma >= 0.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("empty time grid")
    omega_r = float(generalized_rabi(drive))
    amp = 0.5 * (drive.omega0 / omega_r) ** 2
    if order == 1:
        rate = sigma * abs(drive.delta) / omega_r
        envelope = np.exp(-0.5 * (rate * times) ** 2)
        values = amp * (1.0 - np.cos(omega_r * times) * envelope)
        return OscillationTrace.from_times(times, values)
    delta, omega0 = drive.delta, drive.omega0
    var = sigma * sigma
    b = omega0 * omega0 / (2.0 * omega_r ** 3)
    c1 = -2.0 * delta / omega_r ** 2
    c2 = (3.0 * delta * delta - omega0 * omega0) / omega_r ** 4
    k = (delta / omega_r) * times
    q = 1.0 - 2j * b * var * times
    s2 = var / q
    moments = 1.0 + 1j * c1 * k * s2 + c2 * (s2 - k * k * s2 * s2)
    oscillating = np.exp(1j * omega_r * times - 0.5 * k * k * s2) * moments / np.sqrt(q)
    values = amp * (1.0 + c2 * var - oscillating.real)
    return OscillationTrace.from_times(times, values)
