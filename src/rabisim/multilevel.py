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

One atom (p1_multilevel) costs one eig of L, one SVD of its eigenvector
matrix for the condition number, and one (samples x 25) table of
exponentials. L and the couplings come from fixed-size arithmetic against
module constants, and each pure initial state is built and validated once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import DriveParams, OscillationTrace
from .units import khz_to_angular

# Ladder couplings (1/2) sqrt(F(F+1) - m(m+-1)) relative to the 2<->1 element,
# on the two first off-diagonals of the symmetric coupling matrix.
_LADDER = np.array([1.0, np.sqrt(6.0) / 2.0, np.sqrt(6.0) / 2.0, 1.0])
_LADDER_MATRIX = np.diag(_LADDER, 1) + np.diag(_LADDER, -1)

# Level pairs the drive may not couple: all but adjacent m.
_NOT_ADJACENT = np.abs(np.subtract.outer(np.arange(5), np.arange(5))) != 1

_EYE = np.eye(5)

# Positions of the coherences rho_kl, k != l, in the row-major flattening:
# the diagonal entries of the Liouvillian that dephasing damps.
_COHERENCES = np.flatnonzero(1.0 - _EYE)

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
        if not np.array_equal(coupling, coupling.T):
            raise ValueError("coupling must be symmetric")
        if np.any(coupling[_NOT_ADJACENT] != 0.0):
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
        """All population in one level, 0..4 for m = +2..-2.

        Every call for a level returns the same instance, whose elements are
        read-only.
        """
        if (isinstance(level, bool) or not isinstance(level, (int, np.integer))
                or not 0 <= level <= 4):
            raise ValueError(f"level must be an integer from 0 to 4, got {level!r}")
        return _pure_state(cls, int(level))


@functools.cache
def _pure_state(cls, level):
    el = np.zeros((5, 5), dtype=complex)
    el[level, level] = 1.0
    state = cls(el)
    state.elements.flags.writeable = False
    return state


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
    coupling = drive.omega0 * _LADDER_MATRIX
    return LevelSystem(level_shifts=shifts, coupling=coupling, gamma=gamma)


def _liouvillian(system: LevelSystem) -> np.ndarray:
    """Superoperator L with d vec(rho)/dt = L vec(rho), row-major flattening.

    L = -i (H (x) I - I (x) H^T) - gamma on the diagonal at every coherence.
    The Kronecker products are the broadcast products h[i,j] I[k,l] and
    I[i,j] H^T[k,l], reshaped to 25 x 25.
    """
    h = system.hamiltonian()
    left = h[:, None, :, None] * _EYE[None, :, None, :]
    right = _EYE[:, None, :, None] * h.T[None, :, None, :]
    lv = -1j * (left - right).reshape(25, 25)
    # -1j * 0 has imaginary part -0.0, and adding zero makes it +0.0, so L
    # has the bits, zero signs included, of the np.kron form plus a dense
    # dephasing matrix (liouvillian_kron in tests/multilevel_oracles.py).
    lv += 0.0
    lv[_COHERENCES, _COHERENCES] += -system.gamma
    return lv


def _spectral(lv, y0, times):
    """exp(lv (t - t0)) y0 at every sample, t0 = times[0].

    One eigendecomposition lv = V diag(lam) V^-1 serves all samples. When V
    is too ill-conditioned for that to be accurate (lv at or near a
    defective matrix), each sample is a matrix exponential instead.
    """
    dt = times - times[0]
    lam, vecs = np.linalg.eig(lv)
    # The 2-norm condition number s_max / s_min exactly as np.linalg.cond
    # computes it, without its wrapper: a singular V gives inf (or nan)
    # without a warning, and both fail the test.
    singular = np.linalg.svd(vecs, compute_uv=False)
    with np.errstate(all="ignore"):
        cond = singular[0] / singular[-1]
    if not cond <= MAX_EIGENVECTOR_COND:
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
