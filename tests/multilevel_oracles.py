"""Independent integrators of the five-level master equation.

The package propagates exactly through an eigendecomposition of the
Liouvillian. These two step through the same linear system instead, so the
tests can check the spectral path against them: DOP853 at tight tolerances,
and a fixed-step classical Runge-Kutta loop for step-halving checks. Both
return the (n_times, 5, 5) state stack and check its invariants the way
`evolve_density` does.
"""

import numpy as np
from scipy.integrate import solve_ivp

from rabisim.multilevel import _check_invariants, _liouvillian


def _start(system, rho0, times):
    times = np.asarray(times, dtype=float)
    return times, _liouvillian(system), rho0.elements.ravel().astype(complex)


def _states(ys, times):
    rhos = ys.reshape(times.size, 5, 5)
    _check_invariants(rhos)
    return rhos


def evolve_dop853(system, rho0, times, rtol=1e-10, atol=1e-12):
    """DOP853 at rtol/atol, evaluated at the requested samples."""
    times, lv, y0 = _start(system, rho0, times)
    sol = solve_ivp(lambda _t, y: lv @ y, (times[0], times[-1]), y0,
                    t_eval=times, method="DOP853", rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return _states(sol.y.T, times)


def evolve_rk4(system, rho0, times, step):
    """Fixed-step classical Runge-Kutta between the requested samples, each
    gap split into equal substeps no longer than step (ms)."""
    times, lv, y = _start(system, rho0, times)
    out = np.empty((times.size, y.size), dtype=complex)
    out[0] = y
    for k in range(times.size - 1):
        span = times[k + 1] - times[k]
        n_sub = max(1, int(np.ceil(span / step)))
        h = span / n_sub
        for _ in range(n_sub):
            k1 = lv @ y
            k2 = lv @ (y + 0.5 * h * k1)
            k3 = lv @ (y + 0.5 * h * k2)
            k4 = lv @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = y
    return _states(out, times)
