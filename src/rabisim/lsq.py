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

import numpy as np
from scipy.special import stdtrit


class LsqResult:
    """Where one start ended: params, ssr, n_iter, converged and message.

    cov is the linearized covariance s^2 (J^T J)^-1 at params, or None
    without residual degrees of freedom. A result given `jac`, the Jacobian
    at params, computes cov from it on first read: a stacked run hands every
    start its Jacobian, and a fit reads the covariance of the one start it
    returns.
    """

    def __init__(self, params, ssr, cov, n_iter, converged, message="", jac=None):
        self.params = params
        self.ssr = ssr
        self.n_iter = n_iter
        self.converged = converged
        self.message = message
        self._cov = cov
        self._jac = jac

    @property
    def cov(self) -> np.ndarray | None:
        if self._jac is not None:
            self._cov, self._jac = covariance(self._jac, self.ssr), None
        return self._cov


def _solve_damped(jtj, jtr, lam):
    """Solve (J^T J + lam diag(J^T J)) dp = J^T r for a stack of rows.

    jtj is (m, k, k), jtr (m, k, 1), lam (m,). A singular row falls back to
    its least-squares solution without touching the other rows.
    """
    m, k, _ = jtj.shape
    scale = np.zeros((m, k * k))  # diag(J^T J) as a matrix, one per row
    np.maximum(jtj.reshape(m, k * k)[:, ::k + 1], 1e-300, out=scale[:, ::k + 1])
    a = jtj + lam[:, None, None] * scale.reshape(m, k, k)
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
    """Linearized parameter covariance s^2 (J^T J)^-1 at the optimum."""
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


def ci95_half_widths(cov, dof):
    """95% confidence half-widths from a covariance matrix.

    Student t quantile times the standard errors; returns None when the
    covariance is unavailable or there are no degrees of freedom.
    """
    if cov is None or dof <= 0:
        return None
    tq = float(stdtrit(dof, 0.975))
    return tq * np.sqrt(np.clip(np.diag(cov), 0.0, None))


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

    jac = jacobian(out_p)
    return [LsqResult(params=out_p[i], ssr=float(out_ssr[i]), cov=None,
                      n_iter=int(n_iter[i]), converged=bool(converged[i]),
                      message=message[i], jac=jac[i])
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
