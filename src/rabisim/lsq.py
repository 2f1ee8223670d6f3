"""Damped least-squares core shared by the fitting routines.

One Levenberg-Marquardt loop, `stacked_levenberg_marquardt`, advances a
stack of starts at once: every row keeps its own damping, step
acceptance, stop rule, iteration count and message, and a row that has
finished is frozen and leaves the stack. Its step is damped Gauss-Newton,
(J^T J + lambda diag(J^T J)) dp = J^T r. Where the model also returns its
residual curvature S = sum_i r_i Hess r_i, the part of the Hessian of
ssr / 2 that J^T J leaves out, a row whose last step had a relative
offset below 1, so within about a CI of the optimum, takes the
damped Newton step (J^T J + S + lambda diag(J^T J)) dp = J^T r instead.
Gauss-Newton converges only linearly where the residual at the optimum is
large, as it is where it is model misfit rather than noise (Dennis, Gay
and Welsch, NL2SOL, ACM TOMS 7, 1981, 348-368): on the single-frequency
fits of the presets each step shrank the error by a factor of only
0.2-0.5. The Newton step converges quadratically there and the fits take
about half the iterations, so the single-frequency model supplies S.
Farther from the optimum S can make the Newton system indefinite and lead
a row into another valley, which Gauss-Newton's positive J^T J does not.
The two-frequency model supplies no S: with it some of its rows reached
another optimum.

A row stops on the first of: its ssr dropping by less than 1e-12
relative, its step falling below 1e-12 relative, no decreasing step, or
the relative offset of Bates and Watts (Technometrics 23, 1981, 179-183)
falling below `RO_TOL`. That offset, RO^2 = (q1 / k) / ((ssr - q1) /
(n - k)), compares the part of the residual in the model's tangent plane
with the rest, so it measures the remaining move in units of the
parameters' own uncertainty. q1 = dq.J^T r takes the damped Gauss-Newton
step dq of the accepted trial: the step itself without S, and with S the
second system of the same stacked solve, so it costs no extra solve. RO
needs residual degrees of freedom (n > k), and a fit with almost no
misfit, where ssr - q1 vanishes and RO is undefined, still ends on the
1e-12 rules.

The model is evaluated once per trial: one callable returns the residual,
the Jacobian and, if it has one, S from a single pass, and the accepted
trial's outputs carry over to the next iteration and, the Jacobian at the
end, into the result. The callable also gets the start index of each row
it evaluates, so the rows of one stack may fit different data. The
stacked products and solves are bitwise equal to the per-row 2-D calls,
so each row's result equals that start run alone.
`levenberg_marquardt` is the one-start Gauss-Newton wrapper.
Problem sizes here are tiny (hundreds of samples, at most eight
parameters), so dense normal equations are perfectly fine and keep the
implementation auditable.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# A row stops once the relative offset of its step falls below this. The
# move left is then at most about 1e-4 of the parameters' own statistical
# uncertainty where the steps converge fast: with the Newton step that
# follows, the 355 converged single-frequency fits of the presets end within
# 3.7e-7 of a CI of the fit run to the 1e-12 rules alone. Linearly
# converging Gauss-Newton steps stopped up to 7.1e-4 of a CI short there.
RO_TOL = 1e-4


class LsqResult:
    """Where one start ended: params, ssr, n_iter, converged, message, jac,
    the Jacobian at params, and relative_offset, the relative offset of
    the last step taken (0 after no decreasing step, nan where undefined:
    no step, no residual degrees of freedom or no misfit off the tangent
    plane)."""

    def __init__(self, params, ssr, n_iter, converged, message="", jac=None,
                 relative_offset=math.nan):
        self.params = params
        self.ssr = ssr
        self.n_iter = n_iter
        self.converged = converged
        self.message = message
        self.jac = jac
        self.relative_offset = relative_offset


def _relative_offset(q1, ssr, n, k):
    """Bates and Watts' relative offset sqrt((q1 / k) / ((ssr - q1) / (n - k)))
    of a residual with squared norm ssr whose tangent-plane part has squared
    norm q1, for n residuals and k parameters; nan where it is undefined
    (n <= k, or ssr - q1 <= 0)."""
    rest = ssr - q1
    if n <= k or not rest > 0:
        return math.nan
    return math.sqrt(max(q1, 0.0) / k * (n - k) / rest)


def _solve_damped(jtj, jtr, lam, curv=None):
    """Solve (J^T J + lam diag(J^T J)) dp = J^T r for a stack of rows.

    jtj is (m, k, k), jtr (m, k, 1), lam (m,). Returns the pair of (m, k)
    steps (taken, Gauss-Newton): with the (m, k, k) curvature curv the step
    taken is the Newton step, J^T J + curv in place of J^T J, and both come
    from one stacked solve; without it both are the Gauss-Newton step. A
    singular system falls back to its least-squares solution without
    touching the others.
    """
    m, k, _ = jtj.shape
    if curv is None:
        a = jtj.copy()
    else:
        a = np.empty((2, m, k, k))
        np.add(jtj, curv, out=a[0])
        a[1] = jtj
    # Strided views of each system's diagonal, damped by lam diag(J^T J).
    diag = a.reshape(-1, m, k * k)[..., ::k + 1]
    diag += lam[:, None] * np.maximum(jtj.reshape(m, k * k)[:, ::k + 1], 1e-300)
    try:
        out = np.linalg.solve(a, jtr)[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty(a.shape[:-1])
        for i in np.ndindex(a.shape[:-2]):
            a_i, b_i = a[i], jtr[i[-1], :, 0]
            try:
                out[i] = np.linalg.solve(a_i, b_i)
            except np.linalg.LinAlgError:
                out[i] = np.linalg.lstsq(a_i, b_i, rcond=None)[0]
    return (out, out) if curv is None else out


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


def stacked_levenberg_marquardt(evaluate, p0, *, max_iter=200, lam0=1e-3):
    """Minimize sum(r(p)^2) from every row of the (s, k) starts p0.

    evaluate(P, rows) maps an (m, k) stack of parameter rows to the (m, n)
    residuals and the (m, n, k) Jacobian, both from one pass over the
    model; rows holds the index into p0 of each row's start, so a row can
    read its own data. It is called on subsets of the rows, so each output
    row may depend on its own input row and start only. A model may return
    a third output, its (m, k, k) residual curvature S = sum_i r_i Hess r_i:
    a row whose last step had a relative offset below 1 then solves
    (J^T J + S + lambda diag(J^T J)) dp = J^T r, a damped Newton step.
    Each trial step is evaluated once: the outputs of the accepted trial
    are the next iteration's. Damping lambda shrinks on accepted steps and
    grows on rejected ones, per row. Returns one LsqResult per start, in
    order, whose jac is the Jacobian at its params. Never raises for
    non-convergence; the caller checks `converged` and decides.
    """
    p = np.array(p0, dtype=float)
    s, k = p.shape
    rows = np.arange(s)  # the start each active row belongs to
    model = evaluate(p, rows)  # r, the Jacobian and, if given, S
    n = model[0].shape[1]
    tol2k = RO_TOL * RO_TOL * k
    out_p = p.copy()
    out_ssr = np.empty(s)
    out_jac = np.empty_like(model[1])
    out_ro = np.empty(s)
    n_iter = np.empty(s, dtype=int)
    converged = np.empty(s, dtype=bool)
    message = [""] * s

    ssr = _sq_norms(model[0])
    lam = np.full(s, float(lam0))
    # Each row's last step: q1 = dq.J^T r of its Gauss-Newton step dq and
    # the ssr it started from.
    q1 = ssr_from = np.full(s, math.nan)

    def retire(done, it, text, conv):
        for pos in np.flatnonzero(done):
            row = rows[pos]
            out_p[row], out_ssr[row], out_jac[row] = p[pos], ssr[pos], model[1][pos]
            n_iter[row], converged[row], message[row] = it, conv, text[pos]
            out_ro[row] = _relative_offset(q1[pos], ssr_from[pos], n, k)

    def keep(live):
        return (*(x[live] for x in (p, ssr, lam, rows, q1, ssr_from)),
                tuple(x[live] for x in model))

    for it in range(1, max_iter + 1):
        bad = ~(np.isfinite(model[1]).all(axis=(1, 2)) & np.isfinite(ssr))
        if bad.any():
            retire(bad, it, ["non-finite residual or Jacobian"] * len(p), False)
            p, ssr, lam, rows, q1, ssr_from, model = keep(~bad)
            if not rows.size:
                break
        r, jac, *curv = model
        jt = jac.transpose(0, 2, 1)
        jtj = jt @ jac
        jtr = jt @ r[..., None]

        # Damped step search, up to 30 tries of the whole stack: each row
        # takes its first decreasing step, and a retry multiplies lambda by 5
        # for the rows still without one. A row with none is stationary to
        # float precision: it keeps its iterate (dp = 0) and its model
        # outputs, and stops. Every ssr is finite here, so `<=` also rejects
        # non-finite trials. dq is the Gauss-Newton step, which gives q1:
        # with S it is solved beside the Newton step, and the rows whose last
        # step had a relative offset below 1 take the Newton step, the others
        # dq; without S the step taken is dq.
        newton = ((n > k) & (q1 * n < k * ssr_from))[:, None] if curv else None
        dp = dq = np.zeros(p.shape)
        ssr_new, model_new = ssr, model
        ok = np.zeros(len(p), dtype=bool)
        for attempt in range(30):
            if attempt:
                lam = np.where(ok, lam, 5.0 * lam)
            dp_t, dq_t = _solve_damped(jtj, jtr, lam, *curv)
            if curv:
                dp_t = np.where(newton, dp_t, dq_t)
            trial = evaluate(p - dp_t, rows)
            ssr_t = _sq_norms(trial[0])
            take = ~ok & (ssr_t <= ssr)
            if take.all():
                dp, dq, ssr_new, model_new, ok = dp_t, dq_t, ssr_t, trial, take
                break
            if not take.any():
                continue
            dp = np.where(take[:, None], dp_t, dp)
            dq = np.where(take[:, None], dq_t, dq)
            ssr_new = np.where(take, ssr_t, ssr_new)
            model_new = tuple(np.where(take.reshape(-1, *[1] * (x.ndim - 1)), x_t, x)
                              for x, x_t in zip(model_new, trial))
            ok |= take
            if ok.all():
                break
        p_new = p - dp
        rel_drop = (ssr - ssr_new) / np.maximum(ssr, 1e-300)
        rel_step = (np.abs(dp) / np.maximum(np.abs(p_new), 1e-12)).max(axis=1)
        stop = ~ok | (rel_drop < 1e-12) | (rel_step < 1e-12)
        q1 = (dq[:, None] @ jtr)[:, 0, 0]
        if n > k:
            # RO < RO_TOL without a division: q1 (n - k) < tol^2 k (ssr - q1).
            # It never holds where ssr - q1 <= 0 and RO is undefined.
            stop |= q1 * (n - k + tol2k) < tol2k * ssr
        ssr_from = ssr
        p, ssr, model = p_new, ssr_new, model_new
        lam = np.maximum(lam / 3.0, 1e-14)
        if stop.any():
            retire(stop, it, ["converged" if o else "no decreasing step" for o in ok], True)
            p, ssr, lam, rows, q1, ssr_from, model = keep(~stop)
            if not rows.size:
                break
    retire(np.ones(rows.size, dtype=bool), max(max_iter, 0),
           ["iteration cap reached"] * rows.size, False)
    return [LsqResult(params=out_p[i], ssr=float(out_ssr[i]), n_iter=int(n_iter[i]),
                      converged=bool(converged[i]), message=message[i], jac=out_jac[i],
                      relative_offset=float(out_ro[i]))
            for i in range(s)]


def levenberg_marquardt(residual, jacobian, p0, *, max_iter=200, lam0=1e-3):
    """Minimize sum(residual(p)^2) from the single starting point p0.

    residual(p) returns the (n,) residual vector, jacobian(p) the (n, k)
    matrix of its derivatives. The one-start form of
    stacked_levenberg_marquardt, which evaluates the two together.
    """
    (res,) = stacked_levenberg_marquardt(
        lambda P, rows: (residual(P[0])[None], jacobian(P[0])[None]),
        np.asarray(p0, dtype=float)[None], max_iter=max_iter, lam0=lam0)
    return res
