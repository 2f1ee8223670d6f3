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
step dq of the accepted trial: the step itself where no row of the stack
takes a Newton step, as in every first iteration, and otherwise the
second system of the same stacked solve, so it costs no extra solve
call. RO needs residual degrees of freedom (n > k), and a fit with almost
no misfit, where ssr - q1 vanishes and RO is undefined, still ends on the
1e-12 rules.

The model is evaluated once per trial: one callable returns the residual,
the Jacobian and, if it has one, S from a single pass, and the accepted
trial's outputs carry over to the next iteration and, the Jacobian at the
end, into the result. The callable also gets the start index of each row
it evaluates, so the rows of one stack may fit different data. The
stacked products and solves are bitwise equal to the per-row 2-D calls,
so each row's result equals that start run alone.

As in MINPACK's lmder (Moré, The Levenberg-Marquardt algorithm:
implementation and theory, LNM 630, 1978, 105-116), the control of each
row is scalar: its ssr, lambda, q1, the ssr its last step started from,
whether its trial was accepted and whether it stops are Python floats,
bools and lists, and NumPy does only the stacked work, the normal
equations, the solve and the evaluation. Most stacks hold one row (one
FFT peak), where a NumPy call on a one-element array costs more than the
arithmetic it does; they run the same loop as the many-row stacks.
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


def _solve_damped(a, jtr, damping):
    """Solve (A + diag(d)) dp = J^T r for every system of a stack of rows.

    a is the (m, k, k) stack of undamped matrices A, or (2, m, k, k) for two
    systems per row; jtr is (m, k, 1) and damping the (m, k) diagonals d,
    lambda diag(J^T J) (floored at 1e-300) per row. Returns the steps,
    shaped a.shape[:-1]. A singular system falls back to its least-squares
    solution without touching the others.
    """
    m, k = damping.shape
    a = a.copy()
    # A strided view of each system's diagonal.
    diag = a.reshape(-1, m, k * k)[..., ::k + 1]
    diag += damping
    try:
        return np.linalg.solve(a, jtr)[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty(a.shape[:-1])
        for i in np.ndindex(a.shape[:-2]):
            a_i, b_i = a[i], jtr[i[-1], :, 0]
            try:
                out[i] = np.linalg.solve(a_i, b_i)
            except np.linalg.LinAlgError:
                out[i] = np.linalg.lstsq(a_i, b_i, rcond=None)[0]
        return out


def _sq_norms(r):
    # Row-wise r @ r, as floats; the stacked matmul is bitwise the 1-D dot
    # (einsum is not).
    return (r[:, None] @ r[..., None]).ravel().tolist()


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
    results = [None] * s
    # Each active row's ssr and damping, and its last step: q1 = dq.J^T r
    # of its Gauss-Newton step dq and the ssr it started from.
    ssr = _sq_norms(model[0])
    lam = [float(lam0)] * s
    q1 = ssr_from = [math.nan] * s

    def retire(done, it, converged, messages):
        for pos in done:
            results[rows[pos]] = LsqResult(
                params=p[pos].copy(), ssr=ssr[pos], n_iter=it, converged=converged,
                message=messages[pos], jac=model[1][pos].copy(),
                relative_offset=_relative_offset(q1[pos], ssr_from[pos], n, k))

    def keep(done):
        live = [pos for pos in range(len(ssr)) if pos not in done]
        return (p[live], rows[live], tuple(x[live] for x in model),
                *([x[pos] for pos in live] for x in (ssr, lam, q1, ssr_from)))

    for it in range(1, max_iter + 1):
        finite = np.isfinite(model[1]).all(axis=(1, 2)).tolist()
        bad = {pos for pos, x in enumerate(ssr) if not (finite[pos] and math.isfinite(x))}
        if bad:
            retire(bad, it, False, ["non-finite residual or Jacobian"] * len(ssr))
            if len(bad) == len(ssr):
                return results
            p, rows, model, ssr, lam, q1, ssr_from = keep(bad)
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
        # the rows whose last step had a relative offset below 1 take the
        # Newton step, solved beside dq, and the others dq. Without S, or
        # without such a row, only dq is solved.
        newton = [bool(curv) and n > k and a * n < k * b for a, b in zip(q1, ssr_from)]
        m = len(ssr)
        if any(newton):
            systems = np.empty((2, m, k, k))
            np.add(jtj, curv[0], out=systems[0])
            systems[1] = jtj
            pick = None if all(newton) else np.array(newton)[:, None]
        else:
            systems = jtj
        scale = np.maximum(jtj.reshape(m, k * k)[:, ::k + 1], 1e-300)
        ok = [False] * m
        dp = dq = None
        ssr_new, model_new = ssr, model
        for attempt in range(30):
            if attempt:
                lam = [x if o else 5.0 * x for x, o in zip(lam, ok)]
            steps = _solve_damped(systems, jtr, np.array(lam)[:, None] * scale)
            if systems is jtj:
                dp_t = dq_t = steps
            else:
                dp_t, dq_t = steps
                if pick is not None:
                    dp_t = np.where(pick, dp_t, dq_t)
            p_t = p - dp_t
            trial = evaluate(p_t, rows)
            ssr_t = _sq_norms(trial[0])
            take = [not o and a <= b for o, a, b in zip(ok, ssr_t, ssr)]
            if all(take):
                p_new, dp, dq, ssr_new, model_new, ok = p_t, dp_t, dq_t, ssr_t, trial, take
                break
            took = [pos for pos, t in enumerate(take) if t]
            if not took:
                continue
            if dp is None:
                p_new, dp, dq = p.copy(), np.zeros(p.shape), np.zeros(p.shape)
                ssr_new, model_new = list(ssr), tuple(x.copy() for x in model)
            p_new[took], dp[took], dq[took] = p_t[took], dp_t[took], dq_t[took]
            for x, x_t in zip(model_new, trial):
                x[took] = x_t[took]
            for pos in took:
                ssr_new[pos], ok[pos] = ssr_t[pos], True
            if all(ok):
                break
        if dp is None:
            p_new, dp, dq = p, np.zeros(p.shape), np.zeros(p.shape)
        rel_step = np.abs(dp / np.maximum(np.abs(p_new), 1e-12)).max(axis=1).tolist()
        q1 = (dq[:, None] @ jtr).ravel().tolist()
        # RO < RO_TOL without a division: q1 (n - k) < tol^2 k (ssr - q1). It
        # never holds where ssr - q1 <= 0 and RO is undefined.
        stop = {pos for pos in range(m)
                if not ok[pos] or (ssr[pos] - ssr_new[pos]) / max(ssr[pos], 1e-300) < 1e-12
                or rel_step[pos] < 1e-12
                or (n > k and q1[pos] * (n - k + tol2k) < tol2k * ssr[pos])}
        ssr_from = ssr
        p, ssr, model = p_new, ssr_new, model_new
        lam = [max(x / 3.0, 1e-14) for x in lam]
        if stop:
            retire(stop, it, True, ["converged" if o else "no decreasing step" for o in ok])
            if len(stop) == m:
                return results
            p, rows, model, ssr, lam, q1, ssr_from = keep(stop)
    retire(range(len(ssr)), max(max_iter, 0), False, ["iteration cap reached"] * len(ssr))
    return results


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
