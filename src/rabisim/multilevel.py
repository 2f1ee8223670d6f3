"""Density-matrix evolution of the driven five-level F=2 manifold.

Levels are indexed 0..4 for m = +2..-2. The RF drive couples adjacent m
with the F=2 ladder matrix elements, normalized so the (m=2 <-> m=1)
element equals the bare Rabi frequency exactly. A quadratic Zeeman term
pushes the neighboring transitions out of resonance, which is what isolates
the measured pair; decoherence is pure dephasing at rate gamma.

The master equation drho/dt = -i [H, rho] + D(rho) is linear and
time-independent. H is real, so it maps Hermitian matrices to Hermitian
matrices: in the orthonormal basis of 5 diagonal, 10 symmetric and 10
antisymmetric unit matrices it is a fixed real 25x25 generator G acting on
the 25 real coordinates x of rho, and rho is Hermitian by construction.
The commutator is skew-adjoint in the Hilbert-Schmidt inner product, so G
is a skew-symmetric matrix minus the non-negative dephasing diagonal, and
||exp(G t)||_2 <= 1 for t >= 0.

On the uniform grid t0 + k dt the samples are x_k = M^k x(t0) with one
propagator M = exp(G dt), taken by Pade-13 scaling and squaring (Higham,
SIAM J. Matrix Anal. Appl. 26, 2005, 1179-1193) in numpy alone. The
sample table is built by doubling: rows [m, 2m) are rows [0, m) times
(M^m)^T, and M^m is squared between passes. No step amplifies an error,
so rounding grows at most like k eps along the table, and with no
eigenvectors there is no condition number to test, nor an exceptional
point of G to fall back from.

One damped atom (p1_multilevel at gamma > 0) costs one product of the
level shifts, couplings and gamma with module constants for G, one
25x25 exponential and log2(samples) table passes; only rho_11 and the
trace are read back. That is about 0.18 ms an atom on a 126-sample grid
(timeit, 2-CPU host, one BLAS thread), the exponential and the table
about 0.1 ms of it.

At gamma = 0 the evolution is unitary and p1_multilevel's pure start stays
pure, so it propagates the state vector instead: one eigh of the real
symmetric 5x5 Hamiltonian and one (samples x 5) table of phases. evolve
and evolve_density keep the density-matrix path at every gamma, which
makes them the independent reference for this one. Every path takes t0
and dt from one uniform_grid call, so a non-uniform grid is refused.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import DriveParams, OscillationTrace, uniform_grid
from .units import khz_to_angular

# Ladder couplings (1/2) sqrt(F(F+1) - m(m+-1)) relative to the 2<->1 element,
# on the two first off-diagonals of the symmetric coupling matrix.
_LADDER = np.array([1.0, np.sqrt(6.0) / 2.0, np.sqrt(6.0) / 2.0, 1.0])
_LADDER_MATRIX = np.diag(_LADDER, 1) + np.diag(_LADDER, -1)

# Level pairs the drive may not couple: all but adjacent m.
_NOT_ADJACENT = np.abs(np.subtract.outer(np.arange(5), np.arange(5))) != 1


def _hermitian_basis():
    """The 25 orthonormal Hermitian matrices B_a: E_kk, then
    (E_kl + E_lk)/sqrt(2) and i (E_kl - E_lk)/sqrt(2) for k < l.

    rho = sum_a x_a B_a with real x_a = <B_a, rho>: the populations, then
    sqrt(2) Re rho_kl and sqrt(2) Im rho_kl above the diagonal.
    """
    basis = np.zeros((25, 5, 5), dtype=complex)
    levels = np.arange(5)
    basis[levels, levels, levels] = 1.0
    pairs = np.arange(10)
    upper, lower = np.triu_indices(5, 1)
    basis[5 + pairs, upper, lower] = basis[5 + pairs, lower, upper] = np.sqrt(0.5)
    basis[15 + pairs, upper, lower] = 1j * np.sqrt(0.5)
    basis[15 + pairs, lower, upper] = -1j * np.sqrt(0.5)
    return basis


# Row a is B_a flattened row-major: vec(rho) = x @ _BASIS and
# x = (_BASIS.conj() @ vec(rho)).real.
_BASIS = _hermitian_basis().reshape(25, 25)


def _commutator_generator(h):
    """The real matrix of x -> coordinates of -i [h, rho(x)], h real symmetric."""
    basis = _BASIS.reshape(25, 5, 5)
    images = -1j * (h @ basis - basis @ h)
    return (_BASIS.conj() @ images.reshape(25, 25).T).real


def _generators():
    """(10, 625): G per unit level shift (5), per unit adjacent coupling (4),
    and per unit dephasing rate, which damps the 20 coherence coordinates."""
    eye = np.eye(5)
    levels = [np.diag(e) for e in eye]
    pairs = [0.5 * (np.outer(eye[k], eye[k + 1]) + np.outer(eye[k + 1], eye[k]))
             for k in range(4)]
    dephasing = -np.diag(np.r_[np.zeros(5), np.ones(20)])
    return np.stack([_commutator_generator(h) for h in levels + pairs]
                    + [dephasing]).reshape(10, 625)


_GENERATORS = _generators()

M_VALUES = np.array([2.0, 1.0, 0.0, -1.0, -2.0])

DEFAULT_QUADRATIC_SHIFT = khz_to_angular(100.0)

# Coefficients b_0..b_13 of the [13/13] Pade approximant of exp, and the
# largest 1-norm at which it is exact to unit roundoff (Higham 2005, see
# the module docstring; the same constants as scipy.linalg.expm).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


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
        if not np.isfinite(shifts).all():
            raise ValueError(f"level_shifts must be finite, got {shifts}")
        if coupling.shape != (5, 5):
            raise ValueError("coupling must have shape (5, 5)")
        if not np.array_equal(coupling, coupling.T):
            raise ValueError("coupling must be symmetric")
        if not np.isfinite(coupling).all():
            raise ValueError(f"coupling must be finite, got {coupling}")
        if np.any(coupling[_NOT_ADJACENT] != 0.0):
            raise ValueError("couplings are allowed between adjacent levels only")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and non-negative, got {self.gamma}")
        object.__setattr__(self, "level_shifts", shifts)
        object.__setattr__(self, "coupling", coupling)


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
    for name, value in (("drive.omega0", drive.omega0), ("drive.delta", drive.delta),
                        ("local_shift", local_shift), ("quadratic_shift", quadratic_shift),
                        ("gamma", gamma)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if quadratic_shift < 0:
        raise ValueError("quadratic_shift must be non-negative")
    delta = drive.delta + local_shift
    q = 0.5 * quadratic_shift
    m = M_VALUES
    # Finite inputs can still overflow; LevelSystem rejects the result.
    with np.errstate(over="ignore", invalid="ignore"):
        shifts = q * (m - 1.0) * (m - 2.0) + (m - 2.0) * delta
    coupling = drive.omega0 * _LADDER_MATRIX
    return LevelSystem(level_shifts=shifts, coupling=coupling, gamma=gamma)


def _generator(system: LevelSystem) -> np.ndarray:
    """Real G with dx/dt = G x for the _BASIS coordinates x of rho.

    G = U^H L U for the complex Liouvillian L of the row-major flattening
    and U = _BASIS^T, built as one product of the level shifts, the
    adjacent couplings and gamma with _GENERATORS.
    """
    params = np.concatenate((system.level_shifts, np.diagonal(system.coupling, 1),
                             (system.gamma,)))
    return (params @ _GENERATORS).reshape(25, 25)


def _expm(a):
    """exp(a) for a real square a by Pade-13 scaling and squaring.

    a is scaled by 2^-s until its 1-norm is at most _THETA13, where the
    [13/13] Pade approximant r = (v - u)^-1 (v + u) of the exponential is
    exact to unit roundoff, and r is squared s times. A norm of inf or nan
    leaves s = 0 and a non-finite result, which the trace check refuses.
    """
    s = max(0, math.frexp(np.abs(a).sum(axis=0).max() / _THETA13)[1])
    a = a * 0.5 ** s
    b, eye = _PADE13, np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _propagate(g, x0, dt, n):
    """exp(g k dt) x0 for k = 0 .. n-1, as a real (n, x0.size) table.

    Row 0 is x0. Rows [m, 2m) are rows [0, m) @ (M^m)^T for the propagator
    M = exp(g dt), and M^m is squared for the next pass, as
    `ensemble._rotations` builds its phases: one exponential and log2(n)
    passes. Row k is within about k eps of the exact power when
    ||M||_2 <= 1, since no pass or squaring amplifies an earlier error.
    """
    table = np.empty((n, x0.size))
    table[0] = x0
    turn = _expm(g * dt)
    m = 1
    while m < n:
        k = min(m, n - m)
        np.matmul(table[:k], turn.T, out=table[m:m + k])
        turn = turn @ turn
        m *= 2
    return table


def _check_trace(traces):
    drift = float(np.abs(traces - 1.0).max())
    if not drift <= 1e-6:
        raise InvariantViolation(f"trace drift {drift:.2e}")


def _check_invariants(rhos):
    _check_trace(np.einsum("tii->t", rhos))
    herm_drift = float(np.abs(rhos - np.conj(np.swapaxes(rhos, 1, 2))).max())
    if not herm_drift <= 1e-6:
        raise InvariantViolation(f"hermiticity drift {herm_drift:.2e}")


def _coordinates(system, rho0, times):
    """t0 and dt of the uniform grid `times` and the (n_times, 25) real
    _BASIS coordinates of rho at each sample; columns 0..4 are the
    populations. Every state the coordinates map to is Hermitian by
    construction."""
    t0, dt = uniform_grid(times)
    x0 = (_BASIS.conj() @ rho0.elements.ravel()).real
    return t0, dt, _propagate(_generator(system), x0, dt, len(times))


def evolve_density(system: LevelSystem, rho0: DensityMatrix, times) -> np.ndarray:
    """Evolve under the master equation; returns the (n_times, 5, 5) state stack.

    times must be a uniform, increasing grid (ValueError from
    model.uniform_grid otherwise); the states are propagated by powers of
    one matrix exponential of the real generator over its step. Raises
    InvariantViolation when trace or Hermiticity drifts beyond 1e-6 (or is
    not finite).
    """
    _, _, coords = _coordinates(system, rho0, times)
    rhos = (coords @ _BASIS).reshape(-1, 5, 5)
    _check_invariants(rhos)
    return rhos


def _measured_level(t0, dt, populations):
    """The m=1 population trace, once the trace of every sample is checked."""
    _check_trace(populations.sum(axis=1))
    return OscillationTrace(t0=t0, dt=dt, values=populations[:, 1])


def evolve(system: LevelSystem, rho0: DensityMatrix, times) -> OscillationTrace:
    """Master-equation evolution reduced to the m=1 population trace.

    Reads back the five populations alone, for rho_11 and the trace, and
    raises InvariantViolation when the trace drifts beyond 1e-6 (or is not
    finite) at any sample; rho_11 is one of its terms. Hermiticity holds by
    construction of the real coordinates, so it needs no check here.
    """
    t0, dt, coords = _coordinates(system, rho0, times)
    return _measured_level(t0, dt, coords[:, :5])


def _unitary_populations(system, times):
    """t0 and dt of the uniform grid `times` and the populations
    |psi_j(t)|^2 of the pure state that starts in m=2 (level 0) at t0, for
    an undamped system.

    psi(t0 + k dt) = V exp(-i E k dt) V^T e_0 from one eigh of the real
    symmetric H = diag(level_shifts) + coupling / 2.
    """
    t0, dt = uniform_grid(times)
    energies, vecs = np.linalg.eigh(np.diag(system.level_shifts) + 0.5 * system.coupling)
    phases = np.exp(-1j * np.outer(dt * np.arange(len(times)), energies))
    psi = (phases * vecs[0]) @ vecs.T
    return t0, dt, psi.real ** 2 + psi.imag ** 2


def p1_multilevel(drive: DriveParams, local_shift, quadratic_shift, gamma,
                  times) -> OscillationTrace:
    """The m=1 population trace of build_f2_system from all population in m=2.

    At gamma = 0 the evolution is unitary and the pure start stays pure, so
    the state vector is propagated on the eigenbasis of the 5x5 Hamiltonian
    (`_unitary_populations`); with gamma > 0 the density matrix is, by
    `evolve`. Either way InvariantViolation is raised when the trace drifts
    beyond 1e-6 at any sample.
    """
    system = build_f2_system(drive, local_shift, quadratic_shift, gamma)
    if system.gamma == 0:
        return _measured_level(*_unitary_populations(system, times))
    return evolve(system, DensityMatrix.pure(0), times)
