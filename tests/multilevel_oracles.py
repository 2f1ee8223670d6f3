"""Independent integrators of the five-level master equation, and the
plain forms of the package's one-atom path.

The package propagates by powers of one matrix exponential of a real
generator in a basis of Hermitian matrices. Two integrators step through
the complex Liouvillian of `liouvillian_kron` instead, so the tests can
check that propagator against a generator the package does not build:
DOP853 at tight tolerances, and a fixed-step classical Runge-Kutta loop for
step-halving checks. Both build the Hamiltonian from the system's level
shifts and couplings here, so they share no code with the package's
generator, and both return the (n_times, 5, 5) state stack and check its
invariants the way `evolve_density` does.

The package forms its couplings without an element loop; `ladder_coupling`
keeps that form, and the tests require the package to match it bitwise.
`liouvillian_kron` and `p1_kron_eig` keep the complex path through np.kron,
eig, np.linalg.cond and solve over all 25 modes; the tests require the real
generator to be that Liouvillian in the package's basis, and the package's
trace, propagated by powers of the exponential or (at gamma = 0) as a state
vector, to match the complex path within 1e-12 up to a phase error that
grows with the energies and t.
"""

import numpy as np
from scipy.integrate import solve_ivp

from rabisim.multilevel import (
    _LADDER,
    LevelSystem,
    _check_invariants,
    build_f2_system,
)

# Above this condition number the eigenbasis of p1_kron_eig is too close to
# a defective Liouvillian for its modal sum to be trusted.
_MAX_EIGENVECTOR_COND = 1e8


def ladder_coupling(omega0):
    """The symmetric drive couplings, set one adjacent pair at a time."""
    coupling = np.zeros((5, 5))
    for i, rel in enumerate(_LADDER):
        coupling[i, i + 1] = coupling[i + 1, i] = omega0 * rel
    return coupling


def liouvillian_kron(system):
    """-i (H (x) I - I (x) H^T) through np.kron for the rotating-frame
    Hamiltonian H = diag(level_shifts) + coupling / 2, plus a dense
    diagonal dephasing matrix that is zero at the populations."""
    h = np.diag(system.level_shifts) + 0.5 * system.coupling
    n = h.shape[0]
    eye = np.eye(n)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    off_diagonal = (np.ones((n, n)) - np.eye(n)).ravel()
    lv += np.diag(-system.gamma * off_diagonal)
    return lv


def p1_kron_eig(drive, local_shift, quadratic_shift, gamma, times):
    """The m=1 population from m=2 through the kron Liouvillian, eig,
    np.linalg.cond and solve; the eigenbasis must pass the condition test."""
    times = np.asarray(times, dtype=float)
    shifts = build_f2_system(drive, local_shift, quadratic_shift, gamma).level_shifts
    system = LevelSystem(level_shifts=shifts, coupling=ladder_coupling(drive.omega0),
                         gamma=gamma)
    lam, vecs = np.linalg.eig(liouvillian_kron(system))
    assert np.linalg.cond(vecs) <= _MAX_EIGENVECTOR_COND
    y0 = np.zeros(25, dtype=complex)
    y0[0] = 1.0
    coeffs = np.linalg.solve(vecs, y0)
    ys = (np.exp(np.outer(times - times[0], lam)) * coeffs) @ vecs.T
    return _states(ys, times)[:, 1, 1].real


def _start(system, rho0, times):
    times = np.asarray(times, dtype=float)
    return times, liouvillian_kron(system), rho0.elements.ravel().astype(complex)


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
