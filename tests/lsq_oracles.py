"""The one-start Levenberg-Marquardt loop that the stacked loop in
`rabisim.lsq` replaced, kept as an oracle for it.

It is written per start and per step, with plain 2-D products and solves,
and shares no code with the package: the stacked loop must match it
bitwise on every start, and so must a whole fit run through it.
"""

import numpy as np

from rabisim.lsq import RO_TOL, LsqResult


def _solve_damped(jtj, jtr, lam, curv=None):
    scale = np.diag(jtj).clip(min=1e-300)
    a = (jtj if curv is None else jtj + curv) + lam * np.diag(scale)
    try:
        return np.linalg.solve(a, jtr)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, jtr, rcond=None)[0]


def _offset(q1, ssr, n, k):
    if n <= k or not ssr - q1 > 0:
        return float("nan")
    return float(np.sqrt(max(q1, 0.0) / k * (n - k) / (ssr - q1)))


def reference_lm(residual, jacobian, p0, *, max_iter=200, ftol=1e-12, xtol=1e-12,
                 lam0=1e-3, ro_tol=RO_TOL, curvature=None):
    """The one-start loop the stacked loop replaced, kept as the oracle,
    with the relative-offset stop added. With curvature(p), the residual
    curvature S at p, each trial is the damped Newton step once the last
    step's relative offset is below 1 (the damped Gauss-Newton step
    before), and q1 comes from the damped Gauss-Newton step at the same
    lambda."""
    p = np.asarray(p0, dtype=float).copy()
    q1 = ssr_from = float("nan")
    r = residual(p)
    ssr = float(r @ r)
    lam = lam0
    n_iter = 0
    converged = False
    message = "iteration cap reached"
    for n_iter in range(1, max_iter + 1):
        jac = jacobian(p)
        if not np.all(np.isfinite(jac)) or not np.isfinite(ssr):
            message = "non-finite residual or Jacobian"
            break
        jtj = jac.T @ jac
        jtr = jac.T @ r
        n, k = jac.shape
        newton = curvature is not None and n > k and q1 * n < k * ssr_from
        curv = curvature(p) if newton else None
        accepted = False
        dp = np.zeros_like(p)
        ssr_new = ssr
        for _ in range(30):
            dp = _solve_damped(jtj, jtr, lam, curv)
            dq = dp if curv is None else _solve_damped(jtj, jtr, lam)
            p_try = p - dp
            r_try = residual(p_try)
            ssr_try = float(r_try @ r_try)
            if np.isfinite(ssr_try) and ssr_try <= ssr:
                p_new, r_new, ssr_new = p_try, r_try, ssr_try
                accepted = True
                break
            lam *= 5.0
        if not accepted:
            q1, ssr_from = 0.0, ssr
            converged = True
            message = "no decreasing step"
            break
        rel_drop = (ssr - ssr_new) / max(ssr, 1e-300)
        rel_step = float(np.max(np.abs(dp) / np.maximum(np.abs(p_new), 1e-12)))
        # The relative offset of the accepted step, (q1 / k) / ((ssr - q1) / (n - k)),
        # compared without dividing: RO < tol iff q1 (n - k + tol^2 k) < tol^2 k ssr.
        q1, ssr_from = float(dq @ jtr), ssr
        small_offset = n > k and q1 * (n - k + ro_tol**2 * k) < ro_tol**2 * k * ssr
        p, r, ssr = p_new, r_new, ssr_new
        lam = max(lam / 3.0, 1e-14)
        if rel_drop < ftol or rel_step < xtol or small_offset:
            converged = True
            message = "converged"
            break
    return LsqResult(params=p, ssr=ssr, n_iter=n_iter, converged=converged,
                     message=message, relative_offset=_offset(q1, ssr_from, *jac.shape))


def assert_bitwise_equal(res, ref):
    assert np.array_equal(res.params, ref.params, equal_nan=True)
    assert res.ssr == ref.ssr or (np.isnan(res.ssr) and np.isnan(ref.ssr))
    assert (res.n_iter, res.converged, res.message) == (ref.n_iter, ref.converged, ref.message)
    assert np.array_equal(res.relative_offset, ref.relative_offset, equal_nan=True)
