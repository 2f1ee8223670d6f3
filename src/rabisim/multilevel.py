"""Density-matrix evolution of the driven five-level F=2 manifold.

Levels are indexed 0..4 for m = +2..-2. The RF drive couples adjacent m
with the F=2 ladder matrix elements, normalized so the (m=2 <-> m=1)
element equals the bare Rabi frequency exactly. A quadratic Zeeman term
pushes the neighboring transitions out of resonance, which is what isolates
the measured pair; decoherence is pure dephasing at rate gamma.

The master equation drho/dt = -i [H, rho] + D(rho) is linear and
time-independent, so it is a fixed 25x25 superoperator L acting on the
flattened density matrix, and rho(t) = exp(L (t - t0)) rho(t0). The
propagator eigendecomposes L once and evaluates every sample in one
expression. Near an exceptional point of L its eigenvectors become almost
parallel; when their condition number exceeds 1e8 it falls back to a matrix
exponential per sample instead of returning inaccurate values. scipy.linalg
is imported only on that fallback, so the spectral path needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DriveParams, OscillationTrace
from .units import khz_to_angular

# Ladder couplings (1/2) sqrt(F(F+1) - m(m+-1)) relative to the 2<->1 element.
_LADDER = np.array([1.0, np.sqrt(6.0) / 2.0, np.sqrt(6.0) / 2.0, 1.0])

M_VALUES = np.array([2.0, 1.0, 0.0, -1.0, -2.0])

DEFAULT_QUADRATIC_SHIFT = khz_to_angular(100.0)

# Above this condition number of the eigenvector matrix the spectral
# propagator is judged too close to a defective Liouvillian.
MAX_EIGENVECTOR_COND = 1e8


class InvariantViolation(RuntimeError):
    """Trace or Hermiticity of the density matrix drifted beyond 1e-6."""


@dataclass(frozen=True)
class LevelSystem:
    """Rotating-frame level shifts, drive couplings, and dephasing rate.

    level_shifts is the (5,) diagonal of the rotating-frame Hamiltonian and
    coupling the symmetric (5,5) matrix of drive strengths, nonzero only
    between adjacent m. All angular (rad/ms).
    """

    level_shifts: np.ndarray
    coupling: np.ndarray
    gamma: float

    def __post_init__(self):
        shifts = np.asarray(self.level_shifts, dtype=float)
        coupling = np.asarray(self.coupling, dtype=float)
        if shifts.shape != (5,):
            raise ValueError("level_shifts must have shape (5,)")
        if coupling.shape != (5, 5):
            raise ValueError("coupling must have shape (5, 5)")
        if not np.allclose(coupling, coupling.T, atol=0.0, rtol=0.0):
            raise ValueError("coupling must be symmetric")
        adjacency = np.abs(np.subtract.outer(np.arange(5), np.arange(5)))
        if np.any(coupling[adjacency != 1] != 0.0):
            raise ValueError("couplings are allowed between adjacent levels only")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        object.__setattr__(self, "level_shifts", shifts)
        object.__setattr__(self, "coupling", coupling)

    def hamiltonian(self) -> np.ndarray:
        return np.diag(self.level_shifts).astype(complex) + 0.5 * self.coupling


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state carrier."""

    elements: np.ndarray

    def __post_init__(self):
        el = np.asarray(self.elements, dtype=complex)
        if el.ndim != 2 or el.shape[0] != el.shape[1]:
            raise ValueError("density matrix must be square")
        if not np.allclose(el, el.conj().T, atol=1e-9, rtol=0.0):
            raise ValueError("density matrix must be Hermitian")
        trace = complex(np.trace(el))
        if abs(trace - 1.0) > 1e-9:
            raise ValueError(f"density matrix trace must be 1, got {trace}")
        smallest = float(np.linalg.eigvalsh(0.5 * (el + el.conj().T)).min())
        if smallest < -1e-6:
            raise ValueError(
                f"density matrix must be positive semidefinite, smallest eigenvalue {smallest:.2e}"
            )
        object.__setattr__(self, "elements", el)

    @classmethod
    def pure(cls, level: int) -> "DensityMatrix":
        el = np.zeros((5, 5), dtype=complex)
        el[level, level] = 1.0
        return cls(el)


def build_f2_system(drive: DriveParams, local_shift=0.0,
                    quadratic_shift=DEFAULT_QUADRATIC_SHIFT, gamma=0.0) -> LevelSystem:
    """Construct the rotating-frame five-level system.

    The 2<->1 transition is detuned by delta = drive.delta + local_shift;
    the 1<->0 transition sits an extra quadratic_shift away, and the
    remaining two at twice and three times that, the ladder signature of an
    m^2 level shift.
    """
    if quadratic_shift < 0:
        raise ValueError("quadratic_shift must be non-negative")
    delta = drive.delta + local_shift
    q = 0.5 * quadratic_shift
    m = M_VALUES
    shifts = q * (m - 1.0) * (m - 2.0) + (m - 2.0) * delta
    coupling = np.zeros((5, 5))
    for i, rel in enumerate(_LADDER):
        coupling[i, i + 1] = coupling[i + 1, i] = drive.omega0 * rel
    return LevelSystem(level_shifts=shifts, coupling=coupling, gamma=gamma)


def _liouvillian(system: LevelSystem) -> np.ndarray:
    """Superoperator L with d vec(rho)/dt = L vec(rho), row-major flattening."""
    h = system.hamiltonian()
    n = h.shape[0]
    eye = np.eye(n)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    off_diagonal = (np.ones((n, n)) - np.eye(n)).ravel()
    lv += np.diag(-system.gamma * off_diagonal)
    return lv


def _spectral(lv, y0, times):
    """exp(lv (t - t0)) y0 at every sample, t0 = times[0].

    One eigendecomposition lv = V diag(lam) V^-1 serves all samples. When V
    is too ill-conditioned for that to be accurate (lv at or near a
    defective matrix), each sample is a matrix exponential instead.
    """
    dt = times - times[0]
    lam, vecs = np.linalg.eig(lv)
    if not np.linalg.cond(vecs) <= MAX_EIGENVECTOR_COND:
        from scipy.linalg import expm

        return np.stack([expm(lv * tau) @ y0 for tau in dt])
    coeffs = np.linalg.solve(vecs, y0)
    return (np.exp(np.outer(dt, lam)) * coeffs) @ vecs.T


def _check_invariants(rhos):
    trace_drift = float(np.abs(np.einsum("tii->t", rhos) - 1.0).max())
    herm_drift = float(np.abs(rhos - np.conj(np.swapaxes(rhos, 1, 2))).max())
    if not (trace_drift <= 1e-6 and herm_drift <= 1e-6):
        raise InvariantViolation(
            f"trace drift {trace_drift:.2e}, hermiticity drift {herm_drift:.2e}"
        )


def evolve_density(system: LevelSystem, rho0: DensityMatrix, times) -> np.ndarray:
    """Evolve under the master equation; returns the (n_times, 5, 5) state stack.

    Propagates exactly through one eigendecomposition of the Liouvillian,
    falling back to a per-sample matrix exponential when its eigenvector
    matrix has condition number above MAX_EIGENVECTOR_COND. Raises
    InvariantViolation when trace or Hermiticity drifts beyond 1e-6 (or is
    not finite).
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ValueError("need at least two sample times")
    lv = _liouvillian(system)
    y0 = rho0.elements.ravel().astype(complex)
    rhos = _spectral(lv, y0, times).reshape(times.size, 5, 5)
    _check_invariants(rhos)
    return rhos


def evolve(system: LevelSystem, rho0: DensityMatrix, times) -> OscillationTrace:
    """Master-equation evolution reduced to the m=1 population trace."""
    rhos = evolve_density(system, rho0, times)
    return OscillationTrace.from_times(np.asarray(times, dtype=float),
                                       rhos[:, 1, 1].real)


def p1_multilevel(drive: DriveParams, local_shift, quadratic_shift, gamma,
                  times) -> OscillationTrace:
    """build_f2_system + evolve from all population in m=2."""
    system = build_f2_system(drive, local_shift, quadratic_shift, gamma)
    return evolve(system, DensityMatrix.pure(0), times)
