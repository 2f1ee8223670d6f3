"""Damped least-squares core shared by the fitting routines.

One Levenberg-style damped Gauss-Newton loop, `stacked_levenberg_marquardt`,
advances a stack of starts at once: every row keeps its own damping, step
acceptance, stop rule, iteration count and message, and a row that has
finished is frozen and leaves the stack. The stacked products and solves
are bitwise equal to the per-row 2-D calls, so each row's result equals
that start run alone. `levenberg_marquardt` is the one-start wrapper.
Problem sizes here are tiny (hundreds of samples, at most eight
parameters), so dense normal equations are perfectly fine and keep the
implementation auditable.
"""

from __future__ import annotations

import functools
import math

import numpy as np


class LsqResult:
    """Where one start ended: params, ssr, n_iter, converged and message."""

    def __init__(self, params, ssr, n_iter, converged, message=""):
        self.params = params
        self.ssr = ssr
        self.n_iter = n_iter
        self.converged = converged
        self.message = message


def _solve_damped(jtj, jtr, lam):
    """Solve (J^T J + lam diag(J^T J)) dp = J^T r for a stack of rows.

    jtj is (m, k, k), jtr (m, k, 1), lam (m,). A singular row falls back to
    its least-squares solution without touching the other rows.
    """
    m, k, _ = jtj.shape
    a = jtj.copy()
    diag = a.reshape(m, k * k)[:, ::k + 1]  # strided view of each row's diagonal
    diag += lam[:, None] * np.maximum(diag, 1e-300)
    try:
        return np.linalg.solve(a, jtr)[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty((m, k))
        for i, (a_i, b_i) in enumerate(zip(a, jtr[..., 0])):
            try:
                out[i] = np.linalg.solve(a_i, b_i)
            except np.linalg.LinAlgError:
                out[i] = np.linalg.lstsq(a_i, b_i, rcond=None)[0]
        return out


def _sq_norms(r):
    # Row-wise r @ r; the stacked matmul is bitwise the 1-D dot (einsum is not).
    return (r[:, None] @ r[..., None])[:, 0, 0]


def covariance(jac, ssr):
    """Linearized parameter covariance s^2 (J^T J)^-1 at the optimum, or
    None without residual degrees of freedom (n <= k)."""
    n, k = jac.shape
    if n <= k:
        return None
    s2 = ssr / (n - k)
    jtj = jac.T @ jac
    try:
        inv = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        inv = np.linalg.pinv(jtj)
    return s2 * inv


def _t_central_mass(t, dof):
    """A(t|dof) = P(|T| <= t) for Student's t with integer dof >= 1.

    Abramowitz & Stegun 26.7.3-4: with theta = atan(t / sqrt(dof)), A is
    sin(theta) times a finite series in c = cos^2(theta) for even dof, and
    (2/pi) (theta + sin(theta) cos(theta) times such a series) for odd dof.
    Term k of either series is c^k times the product over j <= k of
    (2j-1)/(2j) (even) or (2j)/(2j+1) (odd). c^k is exp(-k log1p(t^2/dof)):
    a rounded c raised to the power k would carry k times its rounding
    error, and k runs to dof / 2.
    """
    if dof == 1:
        return 2.0 / math.pi * math.atan(t)
    r = math.hypot(t, math.sqrt(dof))
    sin, cos = t / r, math.sqrt(dof) / r
    odd = dof % 2
    k = np.arange(1, dof // 2, dtype=float)
    terms = np.cumprod((2.0 * k - 1.0 + odd) / (2.0 * k + odd))
    terms *= np.exp(-math.log1p(t * t / dof) * k)
    series = 1.0 + float(terms.sum())
    if not odd:
        return sin * series
    return 2.0 / math.pi * (math.atan2(t, math.sqrt(dof)) + sin * cos * series)


@functools.lru_cache(maxsize=256)
def t_quantile_975(dof):
    """The 0.975 quantile of Student's t with dof degrees of freedom.

    Solves A(t|dof) = 0.95 by Newton's method, the density of the step
    from math.lgamma. A is concave in t > 0, so from a start below the
    root every iterate stays below it and rises monotonically; the normal
    quantile is such a start for every dof. dof must be an integer >= 1.
    """
    if not (dof >= 1 and float(dof).is_integer()):
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {dof!r}")
    dof = int(dof)
    t = 1.959963984540054  # the normal 0.975 quantile, below every t quantile
    log_norm = (math.lgamma(0.5 * (dof + 1)) - math.lgamma(0.5 * dof)
                - 0.5 * math.log(dof * math.pi))
    for _ in range(100):
        density = math.exp(log_norm - 0.5 * (dof + 1) * math.log1p(t * t / dof))
        step = (0.95 - _t_central_mass(t, dof)) / (2.0 * density)
        t += step
        if abs(step) <= 1e-9 * t:  # Newton squares the error: t is final
            break
    return t


def ci95(cov, dof, grads):
    """95% confidence half-widths of derived quantities, by the delta method.

    Row g of grads is the gradient of one quantity with respect to the
    parameters; its half-width is t_0.975(dof) * sqrt(max(g^T cov g, 0)).
    Unit rows pick the parameters themselves. Returns a list of floats.
    """
    tq = t_quantile_975(dof)
    return [tq * math.sqrt(max(float(g @ cov @ g), 0.0)) for g in grads]


def stacked_levenberg_marquardt(residual, jacobian, p0, *, max_iter=200,
                                lam0=1e-3):
    """Minimize sum(residual(p)^2) from every row of the (s, k) starts p0.

    residual(P) maps an (m, k) stack of parameter rows to the (m, n)
    residuals and jacobian(P) to the (m, n, k) derivatives; both are called
    on subsets of the rows, so each output row may depend on its own input
    row only. Damping lambda shrinks on accepted steps and grows on rejected
    ones, per row. Returns one LsqResult per start, in order. Never raises
    for non-convergence; the caller checks `converged` and decides.
    """
    p = np.array(p0, dtype=float)
    s = p.shape[0]
    out_p = p.copy()
    out_ssr = np.empty(s)
    n_iter = np.full(s, max(max_iter, 0))
    converged = np.zeros(s, dtype=bool)
    message = ["iteration cap reached"] * s

    rows = np.arange(s)  # the start each active row belongs to
    r = residual(p)
    ssr = _sq_norms(r)
    lam = np.full(s, float(lam0))

    def retire(done, it, text, conv):
        for pos in np.flatnonzero(done):
            row = rows[pos]
            out_p[row], out_ssr[row] = p[pos], ssr[pos]
            n_iter[row], converged[row], message[row] = it, conv, text[pos]

    for it in range(1, max_iter + 1):
        jac = jacobian(p)
        bad = ~(np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(ssr))
        if bad.any():
            retire(bad, it, ["non-finite residual or Jacobian"] * len(p), False)
            p, r, ssr, lam, rows, jac = (x[~bad] for x in (p, r, ssr, lam, rows, jac))
            if not rows.size:
                break
        jt = jac.transpose(0, 2, 1)
        jtj = jt @ jac
        jtr = jt @ r[..., None]

        # Damped step search, up to 30 tries of the whole stack: each row
        # takes its first decreasing step, and a retry multiplies lambda by 5
        # for the rows still without one. A row with none is stationary to
        # float precision: it keeps its iterate (dp = 0) and stops.
        # Every ssr is finite here, so `<=` also rejects non-finite trials.
        dp, r_new, ssr_new = np.zeros_like(p), r, ssr
        ok = np.zeros(len(p), dtype=bool)
        for attempt in range(30):
            if attempt:
                lam = np.where(ok, lam, 5.0 * lam)
            dp_t = _solve_damped(jtj, jtr, lam)
            r_t = residual(p - dp_t)
            ssr_t = _sq_norms(r_t)
            take = ~ok & (ssr_t <= ssr)
            if take.all():
                dp, r_new, ssr_new, ok = dp_t, r_t, ssr_t, take
                break
            dp = np.where(take[:, None], dp_t, dp)
            r_new = np.where(take[:, None], r_t, r_new)
            ssr_new = np.where(take, ssr_t, ssr_new)
            ok |= take
            if ok.all():
                break
        p_new = p - dp
        rel_drop = (ssr - ssr_new) / np.maximum(ssr, 1e-300)
        rel_step = np.max(np.abs(dp) / np.maximum(np.abs(p_new), 1e-12), axis=1)
        stop = ~ok | (rel_drop < 1e-12) | (rel_step < 1e-12)
        p, r, ssr = p_new, r_new, ssr_new
        lam = np.maximum(lam / 3.0, 1e-14)
        if stop.any():
            retire(stop, it, ["converged" if o else "no decreasing step" for o in ok], True)
            p, r, ssr, lam, rows = (x[~stop] for x in (p, r, ssr, lam, rows))
            if not rows.size:
                break
    out_p[rows], out_ssr[rows] = p, ssr
    return [LsqResult(params=out_p[i], ssr=float(out_ssr[i]),
                      n_iter=int(n_iter[i]), converged=bool(converged[i]),
                      message=message[i])
            for i in range(s)]


def levenberg_marquardt(residual, jacobian, p0, *, max_iter=200, lam0=1e-3):
    """Minimize sum(residual(p)^2) from the single starting point p0.

    residual(p) returns the (n,) residual vector, jacobian(p) the (n, k)
    matrix of its derivatives. The one-start form of
    stacked_levenberg_marquardt.
    """
    (res,) = stacked_levenberg_marquardt(
        lambda P: residual(P[0])[None], lambda P: jacobian(P[0])[None],
        np.asarray(p0, dtype=float)[None], max_iter=max_iter, lam0=lam0)
    return res
