"""Damped least-squares core shared by the fitting routines.

A small Levenberg-style damped Gauss-Newton loop over user-supplied residual
and Jacobian callables. Problem sizes here are tiny (hundreds of samples,
at most eight parameters), so dense normal equations are perfectly fine and
keep the implementation auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit


@dataclass
class LsqResult:
    params: np.ndarray
    ssr: float
    cov: np.ndarray | None
    n_iter: int
    converged: bool
    message: str = ""


def _solve_damped(jtj, jtr, lam):
    scale = np.diag(jtj).clip(min=1e-300)
    a = jtj + lam * np.diag(scale)
    try:
        return np.linalg.solve(a, jtr)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, jtr, rcond=None)[0]


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


def levenberg_marquardt(residual, jacobian, p0, *, max_iter=200, ftol=1e-12,
                        xtol=1e-12, lam0=1e-3):
    """Minimize sum(residual(p)^2) from the starting point p0.

    residual(p) returns the (n,) residual vector, jacobian(p) the (n, k)
    matrix of its derivatives. Damping lambda shrinks on accepted steps and
    grows on rejected ones. Never raises for non-convergence; the caller
    checks `converged` and decides.
    """
    p = np.asarray(p0, dtype=float).copy()
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
        accepted = False
        dp = np.zeros_like(p)
        ssr_new = ssr
        for _ in range(30):
            dp = _solve_damped(jtj, jtr, lam)
            p_try = p - dp
            r_try = residual(p_try)
            ssr_try = float(r_try @ r_try)
            if np.isfinite(ssr_try) and ssr_try <= ssr:
                p_new, r_new, ssr_new = p_try, r_try, ssr_try
                accepted = True
                break
            lam *= 5.0
        if not accepted:
            # No damped direction improves the fit: stationary to float precision.
            converged = True
            message = "no decreasing step"
            break
        rel_drop = (ssr - ssr_new) / max(ssr, 1e-300)
        rel_step = float(np.max(np.abs(dp) / np.maximum(np.abs(p_new), 1e-12)))
        p, r, ssr = p_new, r_new, ssr_new
        lam = max(lam / 3.0, 1e-14)
        if rel_drop < ftol or rel_step < xtol:
            converged = True
            message = "converged"
            break
    cov = covariance(jacobian(p), ssr)
    return LsqResult(params=p, ssr=ssr, cov=cov, n_iter=n_iter,
                     converged=converged, message=message)
