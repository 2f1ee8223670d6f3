"""Damped-cosine fits of oscillation traces.

Two model families. The single-frequency model

    A exp(-gamma t) cos(omega t + phi) + B t + C

(or its Gaussian-decay variant exp(-gamma^2 t^2 / 2)) is the short-window
workhorse for frequency, amplitude, and decay extraction. The two-frequency
model

    A cos(Omega0 t + phi_a) + B exp(-gamma_b^2 t^2 / 2) cos(omega_bar t + phi_b) + offset

pins one component at the known bare Rabi frequency and lets the other move;
the amplitude ratio |A| / (|A| + |B|) is the pinned fraction of the signal.
Both are least-squares fits with analytic Jacobians. Each model has one
evaluation, written for a stack of parameter rows, that returns residuals
and Jacobian from a single pass over exp, cos and sin, so the starts of a
fit advance in one `stacked_levenberg_marquardt` loop at one evaluation per
trial; each start's result is bitwise the one it would reach alone. The
single-frequency fit runs one start per FFT peak, at decay rate 1/span, and
stops at the first peak whose fit passes r^2 > 0.9999; the two-frequency
fit polishes two starts from a coarse grid, screened in one stacked QR once
the three columns every node shares are projected out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lsq
# Re-exported, not called: perfbench/tracing.py wraps this binding.
from .lsq import levenberg_marquardt  # noqa: F401
from .model import OscillationTrace
from .spectrum import _find_peaks


class FitFailure(RuntimeError):
    """No fit start converged; carries the best (non-converged) iterate."""

    def __init__(self, message, last_fit=None):
        super().__init__(message)
        self.last_fit = last_fit


@dataclass(frozen=True)
class SingleFreqFit:
    """Parameters of the single damped cosine with linear drift.

    gamma is 1/ms (exponential decay) or the Gaussian rate (also 1/ms) when
    decay is "gauss". ci95 maps parameter names to 95% half-widths; inf
    where the fit carries no information.
    """

    A: float
    gamma: float
    omega: float
    phi: float
    B: float
    C: float
    r_squared: float
    ci95: dict = field(default_factory=dict)
    decay: str = "exp"
    converged: bool = True
    flat: bool = False
    ssr: float = 0.0
    n_iter: int = 0

    def __post_init__(self):
        if self.omega < 0:
            raise ValueError("omega must be non-negative")
        object.__setattr__(self, "r_squared", float(np.clip(self.r_squared, 0.0, 1.0)))


@dataclass(frozen=True)
class TwoFreqFit:
    """Parameters of the pinned-plus-moving two-frequency model.

    The slow component oscillates undamped at the supplied omega0; the fast
    one at omega_bar >= omega0 with Gaussian rate gamma_b >= 0.
    fraction_a = |A| / (|A| + |B_amp|). indistinguishable marks fits where
    omega_bar collapses onto omega0 within its own CI; fraction_ci_wide
    marks fits whose full fraction CI width exceeds 25% of the fraction
    itself (the unreliable, dashed regime).
    """

    A: float
    phi_a: float
    B_amp: float
    omega_bar: float
    phi_b: float
    gamma_b: float
    offset: float
    omega0: float
    r_squared: float
    fraction_a: float
    ci95: dict = field(default_factory=dict)
    indistinguishable: bool = False
    fraction_ci_wide: bool = False
    converged: bool = True
    ssr: float = 0.0
    n_iter: int = 0

    def __post_init__(self):
        if not self.gamma_b >= 0:
            raise ValueError("gamma_b must be non-negative")
        if self.omega_bar < self.omega0:
            raise ValueError("omega_bar must not fall below omega0")
        object.__setattr__(self, "r_squared", float(np.clip(self.r_squared, 0.0, 1.0)))


def _window_slice(trace: OscillationTrace, window):
    t_min, t_max = float(window[0]), float(window[1])
    if not t_max > t_min:
        raise ValueError("fit window must have t_max > t_min")
    t = trace.times
    eps = 0.5 * trace.dt
    if t_min < t[0] - eps or t_max > t[-1] + eps:
        raise ValueError(
            f"fit window [{t_min}, {t_max}] falls outside the trace "
            f"[{t[0]:.6g}, {t[-1]:.6g}]"
        )
    mask = (t >= t_min - 1e-12) & (t <= t_max + 1e-12)
    if int(mask.sum()) < 30:
        raise ValueError("fit window must contain at least 30 samples")
    return t[mask], trace.values[mask]


def _fft_peak_frequencies(t, y, n_peaks):
    """Angular frequencies of the strongest spectral peaks of y (detrended)."""
    n = y.size
    nfft = 4 * n
    power = np.abs(np.fft.rfft(y * np.hanning(n), n=nfft))
    freqs = np.fft.rfftfreq(nfft, d=t[1] - t[0])
    floor = 0.5 / (t[-1] - t[0])  # stay clear of the DC leakage
    idx = _find_peaks(power, 0.05 * power.max()) if power.max() > 0 else []
    idx = [i for i in idx if freqs[i] > floor]
    idx.sort(key=lambda i: -power[i])
    out = [2.0 * math.pi * freqs[i] for i in idx[:n_peaks]]
    if not out:
        best = int(np.argmax(np.where(freqs > floor, power, -1.0)))
        out = [2.0 * math.pi * freqs[best]]
    return out


def _detrend_line(t, y):
    a = np.column_stack([t, np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    return coef[0], coef[1]


def _env_exp(gamma, t):
    # Clamp the exponent so a wildly negative trial gamma yields a huge
    # finite residual (rejected step) instead of an overflow warning.
    return np.exp(np.minimum(-gamma * t, 50.0))


def _single_eval(P, t, y, decay):
    """(m, n) residuals and (m, n, 6) Jacobian for an (m, 6) stack of
    parameter rows, from one pass over exp, cos and sin."""
    a, gamma, omega, phi, b, c = P.T[..., None]
    if decay == "exp":
        env = _env_exp(gamma, t)
        denv = -t * env
    else:
        env = np.exp(-0.5 * (gamma * t) ** 2)
        denv = -gamma * t * t * env
    phase = omega * t + phi
    cos_part = np.cos(phase)
    sin_part = np.sin(phase)
    a_env = a * env
    jac = np.empty((len(P), t.size, 6))
    jac[..., 0] = env * cos_part
    jac[..., 1] = a * denv * cos_part
    jac[..., 2] = -a_env * t * sin_part
    jac[..., 3] = -a_env * sin_part
    jac[..., 4] = t
    jac[..., 5] = 1.0
    return a_env * cos_part + b * t + c - y, jac


def _r_squared(y, ssr):
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 0:
        return 0.0
    return 1.0 - ssr / ss_tot


def _fit_starts(evaluate, groups, y, package, what, max_iter):
    """Run each group of starts as one stacked LM fit; package the winner.

    evaluate(P) returns the residuals and Jacobian of a parameter stack.
    groups yields (k, n_params) start arrays: one (1, 6) start per FFT peak
    for the single-frequency fit, one (2, 7) stack of grid starts for the
    two-frequency fit. The converged start with the lowest ssr wins; the
    remaining groups are skipped once it reaches r^2 > 0.9999. Only the
    winner's covariance is computed, from the Jacobian the LM loop returns
    with it, and package(res, cov) builds the fit from it. When no start
    converges, FitFailure carries the best start packaged anyway.
    """
    best = None
    best_converged = None
    for p0 in groups:
        for res in lsq.stacked_levenberg_marquardt(evaluate, p0, max_iter=max_iter):
            if best is None or res.ssr < best.ssr:
                best = res
            if res.converged and (best_converged is None or res.ssr < best_converged.ssr):
                best_converged = res
        if best_converged is not None and _r_squared(y, best_converged.ssr) > 0.9999:
            break

    chosen = best_converged if best_converged is not None else best
    cov = lsq.covariance(chosen.jac, chosen.ssr)
    fit = package(chosen, cov)
    if best_converged is None:
        raise FitFailure(
            f"{what} fit did not converge within {max_iter} iterations",
            last_fit=fit,
        )
    return fit


_SINGLE_PARAM_NAMES = ("A", "gamma", "omega", "phi", "B", "C")


def fit_single_frequency(trace: OscillationTrace, window=(0.01, 0.6), *,
                         decay="exp", max_iter=200) -> SingleFreqFit:
    """Fit the single damped cosine with drift on the given time window.

    Each FFT peak of the detrended window (up to five, strongest first)
    gets one start: its frequency, the decay rate 1/span, a quadrature
    demodulation for the phase, half the peak-to-peak for the amplitude and
    a straight line for the drift. Peaks run in turn until a converged fit
    passes r^2 > 0.9999; the converged fit with the lowest ssr is returned.
    A flat window returns an A ~ 0 fit with infinite CIs rather than
    raising; FitFailure is raised only when no start converges within
    max_iter.
    """
    if decay not in ("exp", "gauss"):
        raise ValueError(f"unknown decay model {decay!r}")
    t, y = _window_slice(trace, window)
    span = t[-1] - t[0]
    scale = float(np.ptp(y))
    if scale < 1e-14 * max(1.0, abs(float(y.mean()))) or scale == 0.0:
        ci = {name: math.inf for name in _SINGLE_PARAM_NAMES}
        return SingleFreqFit(A=0.0, gamma=0.0, omega=0.0, phi=0.0, B=0.0,
                             C=float(y.mean()), r_squared=0.0, ci95=ci,
                             decay=decay, converged=True, flat=True)

    b0, c0 = _detrend_line(t, y)
    resid = y - (b0 * t + c0)
    omega_starts = _fft_peak_frequencies(t, resid, 5)
    a_guess = max(scale / 2.0, 1e-12)

    def groups():
        # One start per FFT peak, built only when reached.
        for omega_guess in omega_starts:
            demod = np.sum(resid * np.exp(-1j * omega_guess * t))
            phi_guess = float(np.angle(demod))
            yield np.array([[a_guess, 1.0 / span, omega_guess, phi_guess, b0, c0]])

    return _fit_starts(lambda P: _single_eval(P, t, y, decay), groups(), y,
                       lambda res, cov: _package_single(res, cov, y, decay),
                       "single-frequency", max_iter)


def _package_single(res, cov, y, decay) -> SingleFreqFit:
    a, gamma, omega, phi, b, c = res.params
    # Canonical orientation: omega >= 0, A >= 0, phi in (-pi, pi].
    if omega < 0:
        omega, phi = -omega, -phi
    if a < 0:
        a, phi = -a, phi + math.pi
    phi = math.remainder(phi, 2.0 * math.pi)
    if decay == "gauss":
        # the Gaussian envelope is even in gamma, so the sign carries nothing
        gamma = abs(gamma)
    ci = dict(zip(_SINGLE_PARAM_NAMES, lsq.ci95(cov, y.size - 6, np.eye(6))))
    return SingleFreqFit(A=float(a), gamma=float(gamma), omega=float(omega),
                         phi=float(phi), B=float(b), C=float(c),
                         r_squared=_r_squared(y, res.ssr), ci95=ci, decay=decay,
                         converged=res.converged, ssr=res.ssr, n_iter=res.n_iter)


def _lstsq(design, y):
    """Least-squares coefficients of one node and their residual sum."""
    coef, res_ss, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if res_ss.size and rank == design.shape[1]:
        return float(res_ss[0]), coef
    diff = design @ coef - y
    return float(diff @ diff), coef


def _grid_starts(t, y, omega0, cos0, sin0):
    """The best (omega_bar, gamma_b) grid node and the best one from a
    different grid region, as (grid index, omega_bar, gamma_b, coef) tuples.

    Node i is (omega_bar[i // 16], gamma_b[i % 16]); its design columns are
    cos0 and sin0 (cos and sin of omega0 t), u = env cos(omega_bar t),
    v = env sin(omega_bar t) and the offset. Nodes rank by their lstsq
    residual sum, ties to the lower grid index. The three columns every
    node shares are projected out once, through one reduced QR, and one
    stacked QR of every node's [u_perp v_perp y_perp] screens the grid:
    |R[2, 2]| is the norm of y's residual after projection onto the span of
    all five columns, so its square equals the node's residual sum to
    rounding and never exceeds it (a rank-deficient node's lstsq solution
    drops small singular directions). Nodes are then solved exactly with
    lstsq in screen order until the screen passes the best exact sum by
    1e-9 |y|^2, far above the rounding, so no node left unsolved can win or
    tie. Only the designs of the nodes solved are built.
    """
    omega_bar = omega0 * np.linspace(1.0, 4.0, 24)
    gamma_b = omega0 * np.linspace(0.02, 2.0, 16)
    node_omega_bar = np.repeat(omega_bar, gamma_b.size)
    node_gamma_b = np.tile(gamma_b, omega_bar.size)
    env = np.exp(-0.5 * (gamma_b[:, None] * t) ** 2)
    phase = omega_bar[:, None] * t
    cos_bar, sin_bar = np.cos(phase), np.sin(phase)
    ones = np.ones_like(t)
    n_nodes = node_omega_bar.size
    cols = np.empty((2 * n_nodes + 1, t.size))  # the u rows, the v rows, y
    moving = cols[:-1].reshape(2, omega_bar.size, gamma_b.size, t.size)
    np.multiply(env, cos_bar[:, None], out=moving[0])
    np.multiply(env, sin_bar[:, None], out=moving[1])
    cols[-1] = y
    q = np.linalg.qr(np.column_stack([cos0, sin0, ones]))[0]
    cols -= (cols @ q) @ q.T
    u_v_y = np.stack([cols[:n_nodes], cols[n_nodes:-1],
                      np.broadcast_to(cols[-1], (n_nodes, t.size))], axis=-1)
    screen = np.linalg.qr(u_v_y, mode="r")[:, 2, 2] ** 2
    tol = 1e-9 * float(y @ y)

    def best_of(nodes):
        best = None
        for i in nodes[np.argsort(screen[nodes], kind="stable")]:
            if best is not None and screen[i] > best[0] + tol:
                break
            w, g = divmod(i, gamma_b.size)
            ssr, coef = _lstsq(np.column_stack(
                [cos0, sin0, env[g] * cos_bar[w], env[g] * sin_bar[w], ones]), y)
            if best is None or (ssr, i) < (best[0], best[2]):
                best = (ssr, coef, i)
        _, coef, i = best
        return i, node_omega_bar[i], node_gamma_b[i], coef

    first = best_of(np.arange(n_nodes))
    far = np.flatnonzero((np.abs(node_omega_bar - first[1]) > 0.25 * omega0)
                         | (np.abs(node_gamma_b - first[2]) > 0.25 * omega0))
    return [first, best_of(far)] if far.size else [first]


def _two_freq_eval(P, t, y, omega0, cos0, sin0):
    """(m, n) residuals and (m, n, 7) Jacobian of the two-frequency model
    for an (m, 7) stack of parameter rows; cos0 and sin0 are cos and sin of
    omega0 t."""
    a1, a2, b1, b2, c, du, gb = P.T[..., None]
    omega_bar = omega0 + np.abs(du)
    gb_abs = np.abs(gb)
    env = np.exp(-0.5 * (gb_abs * t) ** 2)
    cos_bar = np.cos(omega_bar * t)
    sin_bar = np.sin(omega_bar * t)
    fast = b1 * cos_bar + b2 * sin_bar
    jac = np.empty((len(P), t.size, 7))
    jac[..., 0] = cos0
    jac[..., 1] = sin0
    jac[..., 2] = env * cos_bar
    jac[..., 3] = env * sin_bar
    jac[..., 4] = 1.0
    jac[..., 5] = np.copysign(1.0, du) * env * t * (-b1 * sin_bar + b2 * cos_bar)
    jac[..., 6] = np.copysign(1.0, gb) * (-gb_abs * t * t) * env * fast
    return a1 * cos0 + a2 * sin0 + env * fast + c - y, jac


def fit_two_frequency(trace: OscillationTrace, omega0, window=None, *,
                      max_iter=200) -> TwoFreqFit:
    """Fit the pinned-plus-moving two-frequency model.

    omega0 is the known bare Rabi frequency (a model input, never fitted);
    the default window is ten bare periods from the start of the trace,
    clipped to its end. The slow component's decay is fixed at zero.
    Initialization scans a coarse 24 x 16 (omega_bar, gamma_b) grid where
    the amplitudes and offset are linear: with the columns all nodes share
    projected out once, one stacked QR screens the residual sum of every
    node, and the nodes the screen cannot separate from the best are
    re-solved exactly with lstsq and ranked by (residual sum, grid index),
    as a per-node lstsq scan would rank them. The best node and the best
    node from a different grid region are then polished together in one
    stacked nonlinear fit.
    """
    omega0 = float(omega0)
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    if window is None:
        t_start = trace.t0
        t_end = trace.t0 + trace.dt * (len(trace) - 1)
        window = (t_start, min(t_start + 10.0 * 2.0 * math.pi / omega0, t_end))
    t, y = _window_slice(trace, window)

    scale = float(np.ptp(y))
    if scale == 0.0:
        ci = {name: math.inf for name in _TWO_PARAM_NAMES}
        return TwoFreqFit(A=0.0, phi_a=0.0, B_amp=0.0,
                          omega_bar=omega0, phi_b=0.0, gamma_b=0.0,
                          offset=float(y.mean()), omega0=omega0, r_squared=0.0,
                          fraction_a=0.0, ci95=ci, indistinguishable=True,
                          fraction_ci_wide=True, converged=True)

    cos0, sin0 = np.cos(omega0 * t), np.sin(omega0 * t)
    p0 = np.array([[*coef, max(omega_bar - omega0, 1e-6), gamma_b]
                   for _, omega_bar, gamma_b, coef
                   in _grid_starts(t, y, omega0, cos0, sin0)])
    return _fit_starts(lambda P: _two_freq_eval(P, t, y, omega0, cos0, sin0), [p0], y,
                       lambda res, cov: _package_two(res, cov, y, omega0),
                       "two-frequency", max_iter)


_TWO_PARAM_NAMES = ("A", "phi_a", "B_amp", "omega_bar", "phi_b", "gamma_b",
                    "offset", "fraction_a")


def _package_two(res, cov, y, omega0) -> TwoFreqFit:
    a1, a2, b1, b2, c, du, gb = res.params
    amp_a = math.hypot(a1, a2)
    amp_b = math.hypot(b1, b2)
    phi_a = math.atan2(-a2, a1)
    phi_b = math.atan2(-b2, b1)
    omega_bar = omega0 + abs(du)
    gamma_b = abs(gb)
    total = amp_a + amp_b
    fraction = amp_a / total if total > 0 else 0.0

    # Delta method through the amplitude and fraction transforms; a quantity
    # whose transform is singular (a zero amplitude) keeps an infinite CI.
    grads = {}
    if amp_a > 0:
        grads["A"] = np.array([a1 / amp_a, a2 / amp_a, 0, 0, 0, 0, 0])
        grads["phi_a"] = np.array([a2 / amp_a**2, -a1 / amp_a**2, 0, 0, 0, 0, 0])
    if amp_b > 0:
        grads["B_amp"] = np.array([0, 0, b1 / amp_b, b2 / amp_b, 0, 0, 0])
        grads["phi_b"] = np.array([0, 0, b2 / amp_b**2, -b1 / amp_b**2, 0, 0, 0])
    grads["omega_bar"] = np.array([0, 0, 0, 0, 0, math.copysign(1.0, du), 0])
    grads["gamma_b"] = np.array([0, 0, 0, 0, 0, 0, math.copysign(1.0, gb)])
    grads["offset"] = np.array([0, 0, 0, 0, 1.0, 0, 0])
    if total > 0 and amp_a > 0 and amp_b > 0:
        d_a = (amp_b / total**2) * np.array([a1 / amp_a, a2 / amp_a, 0, 0, 0, 0, 0])
        d_b = (amp_a / total**2) * np.array([0, 0, b1 / amp_b, b2 / amp_b, 0, 0, 0])
        grads["fraction_a"] = d_a - d_b
    elif total > 0 and amp_b > 0:
        grads["fraction_a"] = (1.0 / amp_b) * np.array([1.0, 1.0, 0, 0, 0, 0, 0])
    ci = {name: math.inf for name in _TWO_PARAM_NAMES}
    ci.update(zip(grads, lsq.ci95(cov, y.size - 7, grads.values())))

    indistinguishable = (omega_bar - omega0) < ci["omega_bar"]
    fraction_ci_wide = (2.0 * ci["fraction_a"]) > 0.25 * fraction
    return TwoFreqFit(A=amp_a, phi_a=phi_a, B_amp=amp_b,
                      omega_bar=omega_bar, phi_b=phi_b, gamma_b=gamma_b,
                      offset=float(c), omega0=omega0,
                      r_squared=_r_squared(y, res.ssr), fraction_a=fraction,
                      ci95=ci, indistinguishable=bool(indistinguishable),
                      fraction_ci_wide=bool(fraction_ci_wide),
                      converged=res.converged, ssr=res.ssr, n_iter=res.n_iter)
