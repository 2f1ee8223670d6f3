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
single-frequency evaluation also returns the residual curvature
sum_i r_i Hess r_i, from the same pass, so its fits take damped Newton
steps (see lsq); the two-frequency fit stays on Gauss-Newton. Both
models hand their starts to one driver, `_fit_rows`: every start of every
trace runs in one stack, each row against its own trace, and each trace's
converged start with the lowest ssr wins. The single-frequency fit has one
start per FFT peak, at the decay rate the demodulated tone shows between
the two halves of the window (1/span for the Gaussian decay, and at least
1/span for the exponential one). The two-frequency fit takes two
starts per trace from a coarse grid and works on a block of traces that
share one time grid: the grid's per-node bases are built once per block and
one matmul screens every node for every trace. A flat window (peak-to-peak
below 1e-14 of its level, or of 1 for a level below 1) gets a flat fit under
either model and runs no start.
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
    idx = _find_peaks(power, 0.05 * power.max())
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


# The four waves of the single-frequency model: env cos, env sin and the two
# times A, with cos and sin of omega t + phi. Every column of its Jacobian
# and every second derivative is one of them times powers of t and gamma.
_WAVES = ("cos", "sin", "A cos", "A sin")


def _curvature_map(gamma_powers, entries):
    """The (gamma_powers * 20, 36) matrix that takes a row's moments to its
    flattened S. Moment (g, w, j) is gamma^g sum_i r_i t_i^j wave_w(t_i),
    for g < gamma_powers, w over _WAVES and j <= 4. entries maps each upper
    (row, col) of S's (A, gamma, omega, phi) block to its terms
    (coefficient, g, wave, j)."""
    out = np.zeros((gamma_powers, len(_WAVES), 5, 6, 6))
    for (row, col), terms in entries.items():
        for coef, g, wave, j in terms:
            block = out[g, _WAVES.index(wave), j]
            block[row, col] += coef
            if row != col:
                block[col, row] += coef
    return out.reshape(-1, 36)


# The second derivatives of A env cos(omega t + phi) in (A, gamma, omega,
# phi). The exponential envelope has env' = -t env and env'' = t^2 env; the
# Gaussian has env' = -gamma t^2 env and env'' = (gamma^2 t^4 - t^2) env.
_SHARED_CURVATURE = {
    (0, 2): [(-1, 0, "sin", 1)], (0, 3): [(-1, 0, "sin", 0)],
    (2, 2): [(-1, 0, "A cos", 2)], (2, 3): [(-1, 0, "A cos", 1)],
    (3, 3): [(-1, 0, "A cos", 0)]}
_CURVATURE = {
    "exp": _curvature_map(1, {
        **_SHARED_CURVATURE, (0, 1): [(-1, 0, "cos", 1)], (1, 1): [(1, 0, "A cos", 2)],
        (1, 2): [(1, 0, "A sin", 2)], (1, 3): [(1, 0, "A sin", 1)]}),
    "gauss": _curvature_map(3, {
        **_SHARED_CURVATURE, (0, 1): [(-1, 1, "cos", 2)],
        (1, 1): [(1, 2, "A cos", 4), (-1, 0, "A cos", 2)],
        (1, 2): [(1, 1, "A sin", 3)], (1, 3): [(1, 1, "A sin", 2)]}),
}


def _single_eval(P, t_powers, y, decay):
    """(m, n) residuals, (m, n, 6) Jacobian and (m, 6, 6) residual curvature
    S = sum_i r_i Hess r_i for an (m, 6) stack of parameter rows, from one
    pass over exp, cos and sin. t_powers is the (5, n) table t^0 .. t^4 of
    the window's times, and y the (n,) data or an (m, n) stack of each
    row's own data."""
    t = t_powers[1]
    a, gamma, omega, phi, b, c = P.T[..., None]
    if decay == "exp":
        env = _env_exp(gamma, t)
        dlog_env = -t  # d ln(env) / d gamma
    else:
        env = np.exp(-0.5 * (gamma * t) ** 2)
        dlog_env = -gamma * t * t
    phase = omega * t + phi
    waves = np.empty((len(P), len(_WAVES), t.size))
    np.multiply(env, np.cos(phase), out=waves[:, 0])
    np.multiply(env, np.sin(phase), out=waves[:, 1])
    np.multiply(a[..., None], waves[:, :2], out=waves[:, 2:])
    jac = np.empty((len(P), t.size, 6))
    jac[..., 0] = waves[:, 0]
    np.multiply(dlog_env, waves[:, 2], out=jac[..., 1])
    np.negative(waves[:, 3], out=jac[..., 3])
    np.multiply(t, jac[..., 3], out=jac[..., 2])
    jac[..., 4] = t
    jac[..., 5] = 1.0
    r = waves[:, 2] + b * t + c - y
    moments = (r[:, None] * waves) @ t_powers.T
    if decay == "gauss":
        g = gamma[..., None]
        moments = np.concatenate([moments, g * moments, g * g * moments], axis=1)
    curv = moments.reshape(len(P), -1) @ _CURVATURE[decay]
    return r, jac, curv.reshape(len(P), 6, 6)


def _r_squared(y, ssr):
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 0:
        return 0.0
    return 1.0 - ssr / ss_tot


def _is_flat(y):
    """A window whose peak-to-peak is rounding of its level holds no
    oscillation; both models return a flat fit on it without a start."""
    return float(np.ptp(y)) < 1e-14 * max(1.0, abs(float(y.mean())))


def _winner(results, package, what, max_iter):
    """The fit of the converged start with the lowest ssr (the earlier one
    on a tie), or a FitFailure carrying the lowest-ssr start packaged anyway
    when none converged. Only the chosen start's covariance is computed,
    from the Jacobian the LM loop returns with it, and package(res, cov)
    builds the fit from it."""
    converged = [res for res in results if res.converged]
    chosen = min(converged or results, key=lambda res: res.ssr)
    fit = package(chosen, lsq.covariance(chosen.jac, chosen.ssr))
    if not converged:
        return FitFailure(f"{what} fit did not converge within {max_iter} iterations",
                          last_fit=fit)
    return fit


def _fit_rows(evaluate, starts, Y, package, what, max_iter):
    """Fit every trace of Y from its own starts in one stacked LM run.

    starts holds one (k_j, n_params) start array per row of Y, and
    evaluate(P, Yp) returns the residuals and Jacobian of a parameter stack
    against Yp, each parameter row's own trace. Returns the _winner of each
    trace's starts, in order, package(res, cov, y) building a fit of trace y.
    """
    counts = [len(p0) for p0 in starts]
    owner = np.repeat(np.arange(len(starts)), counts)
    results = iter(lsq.stacked_levenberg_marquardt(
        lambda P, rows: evaluate(P, Y[owner[rows]]), np.concatenate(starts),
        max_iter=max_iter))
    return [_winner([next(results) for _ in range(k)],
                    lambda res, cov: package(res, cov, y), what, max_iter)
            for y, k in zip(Y, counts)]


_SINGLE_PARAM_NAMES = ("A", "gamma", "omega", "phi", "B", "C")


def fit_single_frequency(trace: OscillationTrace, window=None, *,
                         decay="exp", max_iter=200) -> SingleFreqFit:
    """Fit the single damped cosine with drift on the given time window.

    The default window is (0.01, 0.6) ms. Each FFT peak of the detrended
    window (up to five, strongest first) gets one start: its frequency, a
    quadrature demodulation for the phase, half the peak-to-peak for the
    amplitude and a straight line for the drift. The exponential decay rate
    starts at the fall of the demodulated amplitude from the first half of
    the window to the second, ln(|D1| / |D2|) / (t[h] - t[0]) over h = n // 2
    samples each, but not below 1/span; the Gaussian rate starts at 1/span. All
    starts run in one stack, and the converged fit with the lowest ssr is
    returned. A flat window returns an A ~ 0 fit with infinite CIs rather
    than raising; FitFailure is raised only when no start converges within
    max_iter.
    """
    if decay not in ("exp", "gauss"):
        raise ValueError(f"unknown decay model {decay!r}")
    t, y = _window_slice(trace, (0.01, 0.6) if window is None else window)
    span = t[-1] - t[0]
    if _is_flat(y):
        ci = {name: math.inf for name in _SINGLE_PARAM_NAMES}
        return SingleFreqFit(A=0.0, gamma=0.0, omega=0.0, phi=0.0, B=0.0,
                             C=float(y.mean()), r_squared=0.0, ci95=ci,
                             decay=decay, converged=True, flat=True)

    b0, c0 = _detrend_line(t, y)
    resid = y - (b0 * t + c0)
    a_guess = max(float(np.ptp(y)) / 2.0, 1e-12)
    half = t.size // 2
    p0 = []
    for omega_guess in _fft_peak_frequencies(t, resid, 5):
        demod = resid * np.exp(-1j * omega_guess * t)
        gamma_guess = 1.0 / span
        if decay == "exp":
            # The tone's demodulated amplitude over the first and second half
            # of the window falls by exp(gamma (t[half] - t[0])).
            d1, d2 = abs(demod[:half].sum()), abs(demod[half:2 * half].sum())
            if d1 > d2 > 0:
                gamma_guess = max(gamma_guess,
                                  (math.log(d1) - math.log(d2)) / (t[half] - t[0]))
        p0.append([a_guess, gamma_guess, omega_guess, float(np.angle(np.sum(demod))),
                   b0, c0])
    t_powers = t ** np.arange(5)[:, None]
    (fit,) = _fit_rows(lambda P, Yp: _single_eval(P, t_powers, Yp, decay),
                       [np.array(p0)], y[None],
                       lambda res, cov, y: _package_single(res, cov, y, decay),
                       "single-frequency", max_iter)
    if isinstance(fit, FitFailure):
        raise fit
    return fit


def _package_single(res, cov, y, decay) -> SingleFreqFit:
    a, gamma, omega, phi, b, c = res.params
    # Canonical orientation: omega >= 0, A >= 0, phi in (-pi, pi].
    if omega < 0:
        omega, phi = -omega, -phi
    if a < 0:
        a, phi = -a, phi + math.pi
    phi = math.remainder(phi, 2.0 * math.pi)
    if phi == -math.pi:  # remainder rounds the tie at an odd multiple of pi to -pi
        phi = math.pi
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


class _Grid:
    """The coarse 24 x 16 (omega_bar, gamma_b) start grid on one time axis.

    Node i is (omega_bar[i // 16], gamma_b[i % 16]); its design columns are
    cos0 and sin0 (cos and sin of omega0 t), u = env cos(omega_bar t),
    v = env sin(omega_bar t) and the offset. No column depends on the data,
    so one grid serves every trace on the axis: the three columns all nodes
    share are projected out of every u and v through one reduced QR, and
    one stacked reduced QR gives each node an orthonormal basis Q_i of its
    [u_perp v_perp].
    """

    def __init__(self, t, omega0, cos0, sin0):
        self.omega0 = omega0
        omega_bar = omega0 * np.linspace(1.0, 4.0, 24)
        gamma_b = omega0 * np.linspace(0.02, 2.0, 16)
        self.node_omega_bar = np.repeat(omega_bar, gamma_b.size)
        self.node_gamma_b = np.tile(gamma_b, omega_bar.size)
        self.env = np.exp(-0.5 * (gamma_b[:, None] * t) ** 2)
        phase = omega_bar[:, None] * t
        self.cos_bar, self.sin_bar = np.cos(phase), np.sin(phase)
        self.shared = (cos0, sin0, np.ones_like(t))
        n_nodes = self.node_omega_bar.size
        # One allocation holds u and v of every node, their projection onto
        # the shared columns, the stacked QR's input and then q_moving. As
        # the block's largest, it raises glibc's trim threshold to twice its
        # size, so the whole working set, the QR's own copies included, stays
        # in the heap from one block to the next (see
        # ensemble._two_level_sum) instead of being faulted in again.
        work = np.empty((3, 2, n_nodes, t.size))
        moving, spare = work[0], work[1]
        uv = moving.reshape(2, omega_bar.size, gamma_b.size, t.size)
        np.multiply(self.env, self.cos_bar[:, None], out=uv[0])
        np.multiply(self.env, self.sin_bar[:, None], out=uv[1])
        self.q_shared = np.linalg.qr(np.column_stack(self.shared))[0]
        moving -= np.matmul(moving @ self.q_shared, self.q_shared.T, out=spare)
        stacked = np.stack([moving[0], moving[1]], axis=-1,
                           out=spare.reshape(n_nodes, t.size, 2))
        q = np.linalg.qr(stacked)[0]
        self.q_moving = work[2].reshape(t.size, 2 * n_nodes)
        np.copyto(self.q_moving.reshape(t.size, n_nodes, 2), q.transpose(1, 0, 2))

    def screen(self, Y):
        """(m, n_nodes) screen of every node for each row of Y:
        |y_perp|^2 - |Q_i^T y_perp|^2, with y_perp = y less its projection
        onto the shared columns."""
        y_perp = Y - (Y @ self.q_shared) @ self.q_shared.T
        proj = (y_perp @ self.q_moving).reshape(len(Y), -1, 2)
        return (y_perp * y_perp).sum(axis=1)[:, None] - (proj * proj).sum(axis=2)

    def design(self, i):
        """The (n, 5) design of node i, as a per-node lstsq scan builds it."""
        w, g = divmod(i, self.env.shape[0])
        cos0, sin0, ones = self.shared
        return np.column_stack([cos0, sin0, self.env[g] * self.cos_bar[w],
                                self.env[g] * self.sin_bar[w], ones])

    def starts(self, y, screen):
        """The best node for y and the best one from a different grid
        region, as (grid index, omega_bar, gamma_b, coef) tuples; screen is
        y's row of self.screen.

        Nodes rank by their lstsq residual sum, ties to the lower grid
        index. The span of node i's five columns is that of the shared three
        plus [u_perp v_perp], so the screen |y_perp|^2 - |Q_i^T y_perp|^2 is
        y's residual sum after projection onto it. As a difference of sums
        it carries rounding of order eps |y|^2. The node's lstsq residual sum
        is the same minimum to rounding, or lies above it where lstsq drops
        a singular direction below its cutoff. Nodes are solved exactly with
        lstsq in screen order until the screen passes the best exact sum by
        1e-9 |y|^2, far above that rounding: a node left unsolved has an
        exact sum above the best, so it can neither win nor tie. Only the
        designs of the nodes solved are built.
        """
        tol = 1e-9 * float(y @ y)

        def best_of(nodes):
            best = None
            for i in nodes[np.argsort(screen[nodes], kind="stable")]:
                if best is not None and screen[i] > best[0] + tol:
                    break
                ssr, coef = _lstsq(self.design(i), y)
                if best is None or (ssr, i) < (best[0], best[2]):
                    best = (ssr, coef, i)
            _, coef, i = best
            return i, self.node_omega_bar[i], self.node_gamma_b[i], coef

        first = best_of(np.arange(screen.size))
        reach = 0.25 * self.omega0
        far = np.flatnonzero((np.abs(self.node_omega_bar - first[1]) > reach)
                             | (np.abs(self.node_gamma_b - first[2]) > reach))
        return [first, best_of(far)] if far.size else [first]


def _two_freq_eval(P, t, y, omega0, cos0, sin0):
    """(m, n) residuals and (m, n, 7) Jacobian of the two-frequency model
    for an (m, 7) stack of parameter rows; y is the (n,) data or an (m, n)
    stack of each row's own data, and cos0 and sin0 are cos and sin of
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
    clipped to its end. The slow component's decay is fixed at zero. This
    is the one-trace case of fit_two_frequency_block, which documents the
    method; FitFailure is raised when neither start converges.
    """
    (fit,) = fit_two_frequency_block([trace], omega0, window, max_iter=max_iter)
    if isinstance(fit, FitFailure):
        raise fit
    return fit


def fit_two_frequency_block(traces, omega0, window=None, *, max_iter=200):
    """Fit the two-frequency model to every trace of a block at once.

    The traces share one time grid, hence one window (the default is that
    of fit_two_frequency). Returns one TwoFreqFit, or the FitFailure of a
    fit whose starts all failed to converge, per trace and in order; each
    is bitwise what the trace would give alone. A flat window gets an
    A = B = 0 fit with infinite CIs and runs no start. Initialization scans
    a coarse 24 x 16 (omega_bar, gamma_b) grid where the amplitudes and
    offset are linear: the grid's bases are built once for the block, one
    matmul screens the residual sum of every node for every trace, and the
    nodes the screen cannot separate from a trace's best are re-solved
    exactly with lstsq and ranked by (residual sum, grid index), as a
    per-node lstsq scan would rank them. Each trace's best node and best
    node from a different grid region become its two starts, and the
    starts of all traces are polished in one stacked nonlinear fit, each
    row against its own trace.
    """
    omega0 = float(omega0)
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    traces = list(traces)
    if not traces:
        return []
    first = traces[0]
    if any((tr.t0, tr.dt, len(tr)) != (first.t0, first.dt, len(first)) for tr in traces):
        raise ValueError("the traces of a block must share one time grid")
    if window is None:
        t_end = first.t0 + first.dt * (len(first) - 1)
        window = (first.t0, min(first.t0 + 10.0 * 2.0 * math.pi / omega0, t_end))
    t, _ = _window_slice(first, window)
    Y = np.array([_window_slice(tr, window)[1] for tr in traces])

    fits = [_flat_two(y, omega0) if _is_flat(y) else None for y in Y]
    live = [j for j, fit in enumerate(fits) if fit is None]
    if not live:
        return fits
    Y = Y[live]
    cos0, sin0 = np.cos(omega0 * t), np.sin(omega0 * t)
    grid = _Grid(t, omega0, cos0, sin0)
    starts = [np.array([[*coef, max(omega_bar - omega0, 1e-6), gamma_b]
                        for _, omega_bar, gamma_b, coef in grid.starts(y, screen)])
              for y, screen in zip(Y, grid.screen(Y))]
    fits_live = _fit_rows(lambda P, Yp: _two_freq_eval(P, t, Yp, omega0, cos0, sin0),
                          starts, Y, lambda res, cov, y: _package_two(res, cov, y, omega0),
                          "two-frequency", max_iter)
    for j, fit in zip(live, fits_live):
        fits[j] = fit
    return fits


def _flat_two(y, omega0) -> TwoFreqFit:
    ci = {name: math.inf for name in _TWO_PARAM_NAMES}
    return TwoFreqFit(A=0.0, phi_a=0.0, B_amp=0.0, omega_bar=omega0, phi_b=0.0,
                      gamma_b=0.0, offset=float(y.mean()), omega0=omega0,
                      r_squared=0.0, fraction_a=0.0, ci95=ci, indistinguishable=True,
                      fraction_ci_wide=True, converged=True)


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
    if amp_a > 0 and amp_b > 0:
        d_a = (amp_b / total**2) * np.array([a1 / amp_a, a2 / amp_a, 0, 0, 0, 0, 0])
        d_b = (amp_a / total**2) * np.array([0, 0, b1 / amp_b, b2 / amp_b, 0, 0, 0])
        grads["fraction_a"] = d_a - d_b
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
