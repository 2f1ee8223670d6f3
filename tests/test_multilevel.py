import itertools

import numpy as np
import pytest
from multilevel_oracles import (
    evolve_dop853,
    evolve_rk4,
    ladder_coupling,
    liouvillian_kron,
    p1_kron_eig,
)
from scipy.linalg import expm

from rabisim.ensemble import AtomModel, DetuningDistribution, EnsembleConfig, ensemble_signal
from rabisim.model import DriveParams, uniform_grid
from rabisim.multilevel import (
    _BASIS,
    _THETA13,
    DensityMatrix,
    InvariantViolation,
    LevelSystem,
    _check_invariants,
    _expm,
    _generator,
    _propagate,
    build_f2_system,
    evolve,
    evolve_density,
    p1_multilevel,
)
from rabisim.units import khz_to_angular

DRIVE = DriveParams(omega0=khz_to_angular(10.0))
TIMES = np.arange(0.0, 1.0, 0.004)


def test_pure_state_construction():
    rho = DensityMatrix.pure(2)
    assert rho.elements.shape == (5, 5)
    assert rho.elements[2, 2] == 1.0
    assert np.trace(rho.elements) == pytest.approx(1.0)


def test_pure_state_is_one_read_only_instance_per_level():
    rho = DensityMatrix.pure(3)
    assert DensityMatrix.pure(np.int64(3)) is rho
    with pytest.raises(ValueError, match="read-only"):
        rho.elements[3, 3] = 0.5
    assert rho.elements[3, 3] == 1.0


@pytest.mark.parametrize("level", [-1, 5, 1.0, True, "0"])
def test_pure_state_rejects_levels_outside_0_to_4(level):
    with pytest.raises(ValueError, match="0 to 4"):
        DensityMatrix.pure(level)


def test_level_system_validation():
    shifts = np.zeros(5)
    good = np.zeros((5, 5))
    good[0, 1] = good[1, 0] = 1.0
    LevelSystem(level_shifts=shifts, coupling=good, gamma=0.0)
    with pytest.raises(ValueError):
        LevelSystem(level_shifts=np.zeros(4), coupling=good, gamma=0.0)
    asym = good.copy()
    asym[0, 1] = 2.0
    with pytest.raises(ValueError):
        LevelSystem(level_shifts=shifts, coupling=asym, gamma=0.0)
    skip = np.zeros((5, 5))
    skip[0, 2] = skip[2, 0] = 1.0
    with pytest.raises(ValueError):
        LevelSystem(level_shifts=shifts, coupling=skip, gamma=0.0)
    with pytest.raises(ValueError):
        LevelSystem(level_shifts=shifts, coupling=good, gamma=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="level_shifts"):
            LevelSystem(level_shifts=np.array([0.0, 0.0, bad, 0.0, 0.0]),
                        coupling=good, gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            LevelSystem(level_shifts=shifts, coupling=good, gamma=bad)
    # the symmetry test compares exactly: nan is never equal to itself,
    # inf equals inf (and then fails the finiteness test, since no
    # evolution can run on it), and -0.0 equals 0.0
    nan = good.copy()
    nan[0, 1] = nan[1, 0] = np.nan
    with pytest.raises(ValueError, match="symmetric"):
        LevelSystem(level_shifts=shifts, coupling=nan, gamma=0.0)
    inf = good.copy()
    inf[2, 3] = inf[3, 2] = np.inf
    with pytest.raises(ValueError, match="coupling must be finite"):
        LevelSystem(level_shifts=shifts, coupling=inf, gamma=0.0)
    signed = good.copy()
    signed[3, 4], signed[4, 3] = 0.0, -0.0
    signed[0, 3], signed[3, 0] = -0.0, 0.0
    LevelSystem(level_shifts=shifts, coupling=signed, gamma=0.0)


def test_zero_coupling_freezes_populations():
    # an undriven system only picks up phases, never moves population
    system = LevelSystem(
        level_shifts=khz_to_angular(np.array([3.0, 1.0, 0.0, -1.0, -3.0])),
        coupling=np.zeros((5, 5)),
        gamma=0.0,
    )
    rho0 = DensityMatrix.pure(0)
    rhos = evolve_density(system, rho0, TIMES)
    pops = np.einsum("tii->ti", rhos).real
    assert np.max(np.abs(pops - pops[0])) < 1e-12


def test_isolated_limit_matches_two_level():
    expected = np.sin(0.5 * DRIVE.omega0 * TIMES) ** 2
    err_100 = np.max(
        np.abs(p1_multilevel(DRIVE, 0.0, khz_to_angular(100.0), 0.0, TIMES).values - expected)
    )
    err_1000 = np.max(
        np.abs(p1_multilevel(DRIVE, 0.0, khz_to_angular(1000.0), 0.0, TIMES).values - expected)
    )
    # neighboring transitions leak a few percent at 100 kHz isolation and
    # an order of magnitude less for every factor of ten beyond that
    assert err_100 < 0.05
    assert err_1000 < 1e-3
    assert err_1000 < err_100 / 10.0


def test_trace_and_hermiticity_preserved():
    system = build_f2_system(DRIVE, khz_to_angular(2.0), khz_to_angular(100.0), khz_to_angular(1.0))
    rhos = evolve_density(system, DensityMatrix.pure(0), TIMES)
    traces = np.trace(rhos, axis1=1, axis2=2)
    assert np.max(np.abs(traces - 1.0)) < 1e-9
    assert np.max(np.abs(rhos - rhos.conj().transpose(0, 2, 1))) < 1e-9


def test_purity_preserved_without_decoherence():
    system = build_f2_system(DRIVE, 0.0, khz_to_angular(100.0), 0.0)
    rhos = evolve_density(system, DensityMatrix.pure(0), TIMES)
    purity = np.einsum("tij,tji->t", rhos, rhos).real
    assert np.max(np.abs(purity - 1.0)) < 1e-6


def test_dephasing_envelope_close_to_analytic():
    gamma = khz_to_angular(1.0)
    trace = p1_multilevel(DRIVE, 0.0, khz_to_angular(1000.0), gamma, TIMES)
    analytic = 0.5 * (1.0 - np.exp(-0.5 * gamma * TIMES) * np.cos(DRIVE.omega0 * TIMES))
    # exp(-gamma t / 2) is the two-level closed form; the density matrix
    # model agrees with it at the few-percent level at this gamma
    assert np.max(np.abs(trace.values - analytic)) < 0.03


def test_rk4_step_halving_converged():
    system = build_f2_system(DRIVE, 0.0, khz_to_angular(100.0), khz_to_angular(1.0))
    rho0 = DensityMatrix.pure(0)
    coarse = evolve_rk4(system, rho0, TIMES, step=5e-5)
    fine = evolve_rk4(system, rho0, TIMES, step=2.5e-5)
    assert np.max(np.abs(coarse - fine)) < 1e-6


def test_rk4_agrees_with_adaptive():
    system = build_f2_system(DRIVE, 0.0, khz_to_angular(100.0), 0.0)
    rho0 = DensityMatrix.pure(0)
    a = evolve_dop853(system, rho0, TIMES)
    b = evolve_rk4(system, rho0, TIMES, step=5e-5)
    assert np.max(np.abs(a - b)) < 1e-7


def test_evolve_reduces_to_measured_level():
    # evolve reads back the populations alone, evolve_density every row
    for gamma_khz in (0.0, 1.0):
        system = build_f2_system(DRIVE, 0.0, khz_to_angular(100.0),
                                 khz_to_angular(gamma_khz))
        trace = evolve(system, DensityMatrix.pure(0), TIMES)
        rhos = evolve_density(system, DensityMatrix.pure(0), TIMES)
        assert np.max(np.abs(trace.values - rhos[:, 1, 1].real)) <= 1e-15


def test_evolve_rejects_bad_input():
    system = build_f2_system(DRIVE, 0.0, khz_to_angular(100.0), 0.0)
    with pytest.raises(ValueError):
        evolve_density(system, DensityMatrix.pure(0), np.array([0.0]))
    with pytest.raises(ValueError):
        build_f2_system(DRIVE, 0.0, -1.0, 0.0)
    # finite inputs whose level shifts overflow, refused without a warning
    with pytest.raises(ValueError, match="level_shifts"):
        build_f2_system(DRIVE, 0.0, 1e308, 0.0)
    with pytest.raises(TypeError):
        p1_multilevel(DriveParams(omega0=10.0))  # every argument is required
    # the propagator steps by one dt, which only a uniform grid has
    uneven = np.r_[TIMES[:100], TIMES[100:] + 1e-4]
    with pytest.raises(ValueError, match="uniformly spaced"):
        evolve_density(system, DensityMatrix.pure(0), uneven)


# DriveParams itself refuses an omega0 of nan or -inf.
NON_FINITE = [("drive.omega0", np.inf)] + [
    (name, value) for name in ("drive.delta", "local_shift", "quadratic_shift", "gamma")
    for value in (np.nan, np.inf, -np.inf)]


@pytest.mark.parametrize("name,value", NON_FINITE)
def test_non_finite_inputs_are_named(name, value):
    args = {"drive": DRIVE, "local_shift": 0.0, "quadratic_shift": khz_to_angular(100.0),
            "gamma": 0.0}
    if name.startswith("drive."):
        args["drive"] = DriveParams(**{**vars(DRIVE), name[6:]: value})
    else:
        args[name] = value
    with pytest.raises(ValueError, match=name):
        build_f2_system(**args)
    with pytest.raises(ValueError, match=name):
        p1_multilevel(*args.values(), TIMES)


# quadratic_shift = 0 puts the neighboring transitions on resonance
# (degenerate spectrum); gamma > 0 makes the Liouvillian non-normal.
SPECTRAL_GRID = [(q, g) for q in (0.0, 25.0, 250.0) for g in (0.0, 2.0)]


@pytest.mark.parametrize("quad_khz,gamma_khz", SPECTRAL_GRID)
def test_spectral_matches_expm_and_adaptive(quad_khz, gamma_khz):
    system = build_f2_system(DRIVE, khz_to_angular(1.5),
                             khz_to_angular(quad_khz), khz_to_angular(gamma_khz))
    rho0 = DensityMatrix.pure(0)
    spectral = evolve_density(system, rho0, TIMES)
    lv = liouvillian_kron(system)
    y0 = rho0.elements.ravel().astype(complex)
    exact = np.stack([expm(lv * t) @ y0 for t in TIMES]).reshape(-1, 5, 5)
    assert np.max(np.abs(spectral - exact)) < 1e-10
    adaptive = evolve_dop853(system, rho0, TIMES, rtol=1e-12, atol=1e-14)
    assert np.max(np.abs(spectral - adaptive)) < 1e-8


@pytest.mark.parametrize("quad_khz,gamma_khz", SPECTRAL_GRID)
def test_generator_is_the_kron_liouvillian_in_the_hermitian_basis(quad_khz, gamma_khz):
    system = build_f2_system(DRIVE, khz_to_angular(1.5),
                             khz_to_angular(quad_khz), khz_to_angular(gamma_khz))
    generator = _generator(system)
    assert generator.dtype == np.float64
    u = _BASIS.T  # columns are the flattened basis matrices
    assert np.allclose(u.conj().T @ u, np.eye(25), rtol=0.0, atol=1e-15)
    expected = u.conj().T @ liouvillian_kron(system) @ u
    assert np.max(np.abs(generator - expected)) <= 1e-13 * np.max(np.abs(expected))
    # skew-symmetric minus a non-negative diagonal, so ||exp(G t)||_2 <= 1
    # and the propagator's powers amplify no rounding
    symmetric = generator + generator.T
    assert np.array_equal(symmetric, np.diag(np.diagonal(symmetric)))
    assert np.all(np.diagonal(symmetric) <= 0.0)


@pytest.mark.parametrize("quad_khz,gamma_khz", SPECTRAL_GRID + [(1000.0, 0.5)])
def test_expm_matches_scipy(quad_khz, gamma_khz):
    # G dt on the perfbench step; at 1000 kHz its 1-norm is far above
    # theta13, so the Pade approximant is squared several times. scipy
    # picks its degree and scaling from norm estimates and rounds
    # differently: the gap is at most about 21 eps ||a||_1 on this grid,
    # and a 40-digit mpmath.expm puts it on scipy's side.
    system = build_f2_system(DRIVE, khz_to_angular(1.5),
                             khz_to_angular(quad_khz), khz_to_angular(gamma_khz))
    a = _generator(system) * 0.008
    norm = np.abs(a).sum(axis=0).max()
    if quad_khz == 1000.0:
        assert norm > 32 * _THETA13
    assert np.max(np.abs(_expm(a) - expm(a))) <= 100 * np.finfo(float).eps * max(norm, 1.0)


# The 675 atoms of the grid checks: omega0, delta, quadratic shift, gamma
# and local shift, all in kHz.
PAIR_GRID = list(itertools.product(
    (0.3, 8.0, 10.0), (0.0, 0.4, 1.5), (0.0, 25.0, 100.0, 250.0, 1000.0),
    (0.0, 0.5, 2.0), (-3.0, -0.7, 0.0, 1.9, 3.0)))


def _f2_system(omega0, delta, quad, gamma, shift):
    drive = DriveParams(omega0=khz_to_angular(omega0), delta=khz_to_angular(delta))
    return build_f2_system(drive, khz_to_angular(shift), khz_to_angular(quad),
                           khz_to_angular(gamma))


@pytest.mark.parametrize("omega0_khz", [0.3, 8.0, 10.0, 17.5])
def test_coupling_is_the_per_element_ladder(omega0_khz):
    drive = DriveParams(omega0=khz_to_angular(omega0_khz))
    coupling = build_f2_system(drive, 0.0, khz_to_angular(100.0), 0.0).coupling
    assert coupling.tobytes() == ladder_coupling(drive.omega0).tobytes()


@pytest.mark.parametrize("quad_khz", [25.0, 250.0])
@pytest.mark.parametrize("gamma_khz", [0.0, 0.5])
def test_p1_multilevel_is_bitwise_the_kron_eig_path(quad_khz, gamma_khz):
    # The real generator and the complex Liouvillian round differently, and
    # the package takes powers of one exponential where the oracle sums
    # eigenmodes, so the two paths agree within 1e-12 rather than bit for
    # bit.
    drive = DriveParams(omega0=khz_to_angular(8.0), delta=khz_to_angular(0.4))
    times = np.arange(126) * 0.008
    for shift_khz in (-3.0, -0.7, 0.0, 1.9):
        args = (drive, khz_to_angular(shift_khz), khz_to_angular(quad_khz),
                khz_to_angular(gamma_khz), times)
        assert np.max(np.abs(p1_multilevel(*args).values - p1_kron_eig(*args))) < 1e-12


def _rounding_bound(system, quad_khz, times, flat_up_to_khz):
    """1e-12 up to flat_up_to_khz of quadratic shift, eps max|E| t_end above.

    Two propagators round the phases of the energies E of H apart by about
    eps |E| t, an error that grows with t: an eigensolver rounds each
    eigenvalue by about eps |E|, and the powers of one exponential repeat
    its rounding of about eps |E| dt at every step. At 1 ms the damped
    atoms differ from the kron path by up to 1.5e-12 at 250 kHz and
    4.9e-12 at 1000 kHz, and the pure-state path differs from either 25x25
    path by up to 2.4e-12 at 1000 kHz.
    """
    if quad_khz <= flat_up_to_khz:
        return 1e-12
    energies = np.linalg.eigvalsh(np.diag(system.level_shifts) + 0.5 * system.coupling)
    return np.finfo(float).eps * np.abs(energies).max() * (times[-1] - times[0])


def _pair_grid_args(omega0, delta, quad, gamma, shift, times):
    return (DriveParams(omega0=khz_to_angular(omega0), delta=khz_to_angular(delta)),
            khz_to_angular(shift), khz_to_angular(quad), khz_to_angular(gamma), times)


def test_p1_multilevel_matches_the_kron_eig_path_across_the_pair_grid():
    # The damped atoms, which take the 25x25 propagator, sampled;
    # the undamped ones are checked in full below.
    times = np.arange(126) * 0.008
    for atom in [a for a in PAIR_GRID if a[3] > 0.0][::3]:
        args = _pair_grid_args(*atom, times)
        bound = _rounding_bound(_f2_system(*atom), atom[2], times, 100.0)
        assert np.max(np.abs(p1_multilevel(*args).values - p1_kron_eig(*args))) <= bound


UNDAMPED_GRID = [a for a in PAIR_GRID if a[3] == 0.0]


def test_undamped_p1_multilevel_matches_the_kron_eig_path():
    times = np.arange(126) * 0.008
    for atom in UNDAMPED_GRID:
        args = _pair_grid_args(*atom, times)
        bound = _rounding_bound(_f2_system(*atom), atom[2], times, 250.0)
        assert np.max(np.abs(p1_multilevel(*args).values - p1_kron_eig(*args))) <= bound


def test_undamped_p1_multilevel_matches_the_density_matrix_path():
    # The state-vector path against the package's own 25x25 evolution.
    times = np.arange(126) * 0.008
    for atom in UNDAMPED_GRID:
        system = _f2_system(*atom)
        reference = evolve(system, DensityMatrix.pure(0), times).values
        bound = _rounding_bound(system, atom[2], times, 250.0)
        assert np.max(np.abs(p1_multilevel(*_pair_grid_args(*atom, times)).values
                             - reference)) <= bound


def test_p1_multilevel_is_continuous_at_zero_dephasing():
    # The smallest rates take the 25x25 path. Dephasing moves a population
    # by up to about gamma t / 3 (2e-9 at 1e-9 kHz over 1 ms), so the rate
    # is small enough for that to stay near 2e-13.
    times = np.arange(126) * 0.008
    for omega0, delta, quad, _, shift in UNDAMPED_GRID:
        damped = p1_multilevel(*_pair_grid_args(omega0, delta, quad, 1e-13, shift, times))
        undamped = p1_multilevel(*_pair_grid_args(omega0, delta, quad, 0.0, shift, times))
        bound = _rounding_bound(_f2_system(omega0, delta, quad, 0.0, shift), quad, times, 250.0)
        assert np.max(np.abs(damped.values - undamped.values)) <= bound


def test_damped_p1_multilevel_is_bitwise_evolve():
    times = np.arange(126) * 0.008
    for atom in [a for a in PAIR_GRID if a[3] > 0.0][::7]:
        expected = evolve(_f2_system(*atom), DensityMatrix.pure(0), times).values
        assert p1_multilevel(*_pair_grid_args(*atom, times)).values.tobytes() == expected.tobytes()


def test_undamped_p1_multilevel_checks_the_trace(monkeypatch):
    # An eigenbasis scaled by 1.001 is no longer orthogonal: the state's
    # norm, and with it the summed populations, moves by 2e-3.
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: (eigh(h)[0], 1.001 * eigh(h)[1]))
    with pytest.raises(InvariantViolation, match="trace drift"):
        p1_multilevel(DRIVE, 0.0, khz_to_angular(100.0), 0.0, TIMES)


def _propagate_on(lv, y0, times):
    return _propagate(lv, y0, uniform_grid(times)[1], times.size)


def test_propagator_is_exact_on_a_defective_matrix():
    # a 2x2 Jordan block has a single eigenvector, so an eigenbasis
    # propagator fails here; powers of the exponential need none
    a = -0.3
    lv = np.array([[a, 1.0], [0.0, a]])
    assert np.linalg.cond(np.linalg.eig(lv)[1]) > 1e8
    y0 = np.array([0.2, 1.0])
    times = np.linspace(0.5, 2.5, 11)
    dt = times - times[0]
    exact = np.stack([np.exp(a * dt) * (y0[0] + dt * y0[1]),
                      np.exp(a * dt) * y0[1]], axis=1)
    assert np.max(np.abs(_propagate_on(lv, y0, times) - exact)) < 1e-12


def test_propagator_is_exact_without_warning_on_a_singular_eigenbasis():
    # a nilpotent Jordan block whose two eigenvectors eig returns exactly
    # parallel: the smallest singular value of V is 0 and cond(V) is inf
    lv = np.array([[0.0, 0.0], [1.0, 0.0]])
    vecs = np.linalg.eig(lv)[1]
    assert np.linalg.svd(vecs, compute_uv=False)[-1] == 0.0
    assert np.linalg.cond(vecs) == np.inf
    y0 = np.array([0.2, 1.0])
    times = np.linspace(0.0, 2.0, 9)
    exact = np.stack([np.full(times.size, y0[0]), y0[1] + times * y0[0]], axis=1)
    assert np.max(np.abs(_propagate_on(lv, y0, times) - exact)) < 1e-12
    # the table is real: a complex generator is refused, not truncated
    with pytest.raises(TypeError):
        _propagate_on(lv.astype(complex), y0, times)


def test_invariant_check_rejects_non_finite_states():
    rhos = np.broadcast_to(np.eye(5) / 5.0, (3, 5, 5)).astype(complex)
    _check_invariants(rhos)
    bad = rhos.copy()
    bad[1, 2, 3] = np.nan
    with pytest.raises(InvariantViolation):
        _check_invariants(bad)


def test_multilevel_ensemble_matches_two_level_at_large_shift():
    dist = DetuningDistribution("gaussian", sigma=khz_to_angular(2.0))
    two = ensemble_signal(EnsembleConfig(DRIVE, dist, quadrature_nodes=201), TIMES)
    five = ensemble_signal(
        EnsembleConfig(DRIVE, dist, AtomModel("multilevel", 0.0, khz_to_angular(1000.0)),
                       quadrature_nodes=201),
        TIMES,
    )
    assert np.max(np.abs(five.values - two.values)) < 1e-3
