import numpy as np
import pytest

from lsq_oracles import assert_bitwise_equal, reference_lm

from rabisim import lsq
from rabisim.lsq import (
    RO_TOL,
    LsqResult,
    ci95,
    covariance,
    levenberg_marquardt,
    stacked_levenberg_marquardt,
    t_quantile_975,
)


def _linear_problem(slope=2.0, intercept=-1.0, noise=None):
    t = np.linspace(0.0, 1.0, 50)
    y = slope * t + intercept
    if noise is not None:
        y = y + noise

    def residual(p):
        return p[0] * t + p[1] - y

    def jacobian(p):
        return np.column_stack([t, np.ones_like(t)])

    return residual, jacobian


def test_linear_problem_exact():
    residual, jacobian = _linear_problem()
    res = levenberg_marquardt(residual, jacobian, np.array([0.0, 0.0]))
    assert res.converged
    assert res.params == pytest.approx([2.0, -1.0], abs=1e-8)
    assert res.ssr == pytest.approx(0.0, abs=1e-16)
    # A zero-residual fit leaves no misfit off the tangent plane, where the
    # relative offset is undefined: it ends on the 1e-12 rules.
    assert (res.n_iter, res.message) == (6, "converged")


def test_rosenbrock_valley():
    # classic curved valley, global minimum at (1, 1)
    def residual(p):
        return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])

    def jacobian(p):
        return np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])

    res = levenberg_marquardt(residual, jacobian, np.array([-1.2, 1.0]), max_iter=500)
    assert res.converged
    assert res.params == pytest.approx([1.0, 1.0], abs=1e-6)
    # n = k = 2: no residual degrees of freedom, so no relative-offset stop.
    assert (res.n_iter, res.message) == (17, "converged")
    assert np.isnan(res.relative_offset)


def test_exponential_decay_recovery():
    t = np.linspace(0.0, 2.0, 80)
    y = 3.0 * np.exp(-1.7 * t)

    def residual(p):
        return p[0] * np.exp(-p[1] * t) - y

    def jacobian(p):
        e = np.exp(-p[1] * t)
        return np.column_stack([e, -p[0] * t * e])

    res = levenberg_marquardt(residual, jacobian, np.array([1.0, 0.5]))
    assert res.converged
    assert res.params == pytest.approx([3.0, 1.7], rel=1e-7)


def test_max_iter_exhaustion_reports_not_converged():
    t = np.linspace(0.0, 2.0, 80)
    y = 3.0 * np.exp(-1.7 * t)

    def residual(p):
        return p[0] * np.exp(-p[1] * t) - y

    def jacobian(p):
        e = np.exp(-p[1] * t)
        return np.column_stack([e, -p[0] * t * e])

    res = levenberg_marquardt(residual, jacobian, np.array([50.0, 30.0]), max_iter=1)
    assert isinstance(res, LsqResult)
    assert not res.converged


def test_covariance_matches_known_variance():
    rng = np.random.default_rng(7)
    noise = 0.05 * rng.standard_normal(50)
    residual, jacobian = _linear_problem(noise=noise)
    res = levenberg_marquardt(residual, jacobian, np.array([0.0, 0.0]))
    jac = jacobian(res.params)
    cov = covariance(jac, res.ssr)
    assert cov is not None
    # residual variance estimate should be near the injected 0.05^2
    s2 = res.ssr / (jac.shape[0] - jac.shape[1])
    assert s2 == pytest.approx(0.05**2, rel=0.5)
    half = ci95(cov, jac.shape[0] - jac.shape[1], np.eye(2))
    assert all(h > 0 for h in half)
    # the fitted slope should sit inside its own 95% interval of the truth
    assert abs(res.params[0] - 2.0) < 3.0 * half[0]


def test_covariance_none_when_underdetermined():
    jac = np.ones((2, 3))
    assert covariance(jac, 1.0) is None


def test_covariance_of_singular_normal_matrix_is_the_pseudoinverse():
    # Two equal columns make J^T J exactly singular: inv raises and the
    # pseudoinverse stands in.
    jac = np.column_stack([np.ones(5), np.ones(5), np.arange(5.0)])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(jac.T @ jac)
    cov = covariance(jac, 0.8)
    np.testing.assert_array_equal(cov, 0.4 * np.linalg.pinv(jac.T @ jac))
    assert np.all(np.isfinite(cov))


def test_t_quantile_matches_scipy_stdtrit():
    # Every dof up to 3000, then a spread of even and odd dof (the series
    # differs by parity) up to MAX_SAMPLES - 6 and MAX_SAMPLES - 7, the
    # largest dof of the two fit models (a fit sees 23 and up).
    from scipy.special import stdtrit

    dofs = list(range(1, 3001)) + [5_000, 5_001, 10_000, 50_000, 50_001,
                                   99_993, 99_994]
    ours = np.array([t_quantile_975(dof) for dof in dofs])
    ref = stdtrit(np.array(dofs, dtype=float), 0.975)
    rel = np.abs(ours / ref - 1.0)
    assert rel.max() < 5e-12, dofs[int(rel.argmax())]
    assert t_quantile_975(np.int64(30)) == t_quantile_975(30.0) == t_quantile_975(30)
    for bad in (0, -3, 0.5, 2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="integer >= 1"):
            t_quantile_975(bad)


_T = np.linspace(0.0, 2.0, 80)
_Y = 3.0 * np.exp(-1.7 * _T)


def _decay_residual(P, y=_Y):
    a, b = P.T[..., None]
    return a * np.exp(-b * _T) - y


def _decay_jacobian(P):
    a, b = P.T[..., None]
    e = np.exp(-b * _T)
    jac = np.stack([e, -a * _T * e], axis=-1)
    # Rows with a negative amplitude see a Jacobian that points uphill, so
    # no damped step can lower their residual.
    return np.where((a < 0)[..., None], -1e-10 * jac, jac)


def _decay_evaluate(P, rows):
    return _decay_residual(P), _decay_jacobian(P)


def _decay_curvature(P, y=_Y):
    # S = sum_i r_i Hess r_i of a exp(-b t) - y: d2/da db = -t e and
    # d2/db2 = a t^2 e. Rows with a negative amplitude get none, so their
    # Newton step is their uphill Gauss-Newton step.
    a, b = P.T[..., None]
    e = np.exp(-b * _T)
    w = ((a * e - y) * e)[:, None]
    s_ab = -(w @ _T[:, None])[:, 0, 0]
    s_bb = a[:, 0] * (w @ (_T * _T)[:, None])[:, 0, 0]
    curv = np.stack([np.stack([np.zeros_like(s_ab), s_ab], axis=-1),
                     np.stack([s_ab, s_bb], axis=-1)], axis=-2)
    return np.where((a < 0)[..., None], 0.0, curv)


def _newton_evaluate(P, rows):
    # The noisy data: with an exact fit the relative offset never falls
    # below 1, and every step would be the Gauss-Newton one.
    return (_decay_residual(P, _NOISY_Y), _decay_jacobian(P),
            _decay_curvature(P, _NOISY_Y))


def _solo(fn):
    return lambda p: fn(p[None])[0]


def test_stacked_rows_match_solo_runs():
    p0 = np.array([[1.0, 0.5], [-5.0, 1.0], [50.0, 30.0], [1.0, -1000.0]])
    with np.errstate(all="ignore"):
        stacked = stacked_levenberg_marquardt(_decay_evaluate, p0, max_iter=10)
        for row, res in zip(p0, stacked):
            ref = reference_lm(_solo(_decay_residual), _solo(_decay_jacobian), row,
                               max_iter=10)
            assert_bitwise_equal(res, ref)
            alone = levenberg_marquardt(_solo(_decay_residual), _solo(_decay_jacobian),
                                        row, max_iter=10)
            assert_bitwise_equal(alone, ref)
    assert [r.message for r in stacked] == [
        "converged", "no decreasing step", "iteration cap reached",
        "non-finite residual or Jacobian"]
    assert [r.n_iter for r in stacked] == [7, 1, 10, 1]


def test_result_jacobian_is_evaluate_at_params():
    # One row ends in each of the four end states; the Jacobian the loop
    # carried over from its accepted trial is the one at the final params.
    p0 = np.array([[1.0, 0.5], [-5.0, 1.0], [50.0, 30.0], [1.0, -1000.0]])
    with np.errstate(all="ignore"):
        stacked = stacked_levenberg_marquardt(_decay_evaluate, p0, max_iter=10)
        for i, res in enumerate(stacked):
            _, want = _decay_evaluate(res.params[None], np.array([i]))
            assert res.jac.shape == want[0].shape
            assert res.jac.tobytes() == want[0].tobytes(), res.message
    assert [r.message for r in stacked] == [
        "converged", "no decreasing step", "iteration cap reached",
        "non-finite residual or Jacobian"]


def test_singular_damped_system_falls_back_to_lstsq():
    # With no damping, a zero amplitude zeroes the rate column of the
    # Jacobian, so the first normal-equation solve of that row is singular.
    p0 = np.array([[1.0, 0.5], [0.0, 0.5]])
    jac0 = _decay_jacobian(p0[1:])[0]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jac0.T @ jac0, jac0.T @ _decay_residual(p0[1:])[0])
    stacked = stacked_levenberg_marquardt(_decay_evaluate, p0, lam0=0.0)
    for row, res in zip(p0, stacked):
        ref = reference_lm(_solo(_decay_residual), _solo(_decay_jacobian), row, lam0=0.0)
        assert_bitwise_equal(res, ref)
    assert stacked[0].converged


def test_rows_read_their_own_data_and_match_solo_runs():
    # Each start fits its own decay curve, read through the start indices
    # the loop passes to evaluate; rows 1 and 3 leave the stack after one
    # iteration, so later calls see a subset of the starts.
    ys = np.stack([_Y, 2.0 * np.exp(-0.4 * _T), 0.5 * np.exp(-3.0 * _T) + 0.1,
                   1.5 * np.exp(-_T)])
    p0 = np.array([[1.0, 0.5], [-5.0, 1.0], [50.0, 30.0], [1.0, -1000.0]])
    seen = []

    def evaluate(P, rows):
        seen.append(rows.tolist())
        return _decay_residual(P, ys[rows]), _decay_jacobian(P)

    with np.errstate(all="ignore"):
        stacked = stacked_levenberg_marquardt(evaluate, p0, max_iter=10)
        for row, y, res in zip(p0, ys, stacked):
            (alone,) = stacked_levenberg_marquardt(
                lambda P, rows, y=y: (_decay_residual(P, y), _decay_jacobian(P)),
                row[None], max_iter=10)
            assert_bitwise_equal(res, alone)
            assert res.jac.tobytes() == alone.jac.tobytes()
            ref = reference_lm(lambda p, y=y: _decay_residual(p[None], y)[0],
                               _solo(_decay_jacobian), row, max_iter=10)
            assert_bitwise_equal(res, ref)
    assert [r.message for r in stacked] == [
        "converged", "no decreasing step", "iteration cap reached",
        "non-finite residual or Jacobian"]
    assert seen[0] == [0, 1, 2, 3] and [0, 2] in seen


_NOISY_Y = _Y + 0.05 * np.random.default_rng(3).standard_normal(_T.size)
_NOISY_P0 = np.array([[1.0, 0.5], [10.0, 5.0], [0.5, 0.1], [3.0, 1.0], [5.0, 3.0]])


def _noisy_evaluate(P, rows):
    a, b = P.T[..., None]
    e = np.exp(-b * _T)
    return a * e - _NOISY_Y, np.stack([e, -a * _T * e], axis=-1)


def test_noisy_rows_match_the_reference_with_the_offset_stop():
    stacked = stacked_levenberg_marquardt(_noisy_evaluate, _NOISY_P0)
    for row, res in zip(_NOISY_P0, stacked):
        ref = reference_lm(_solo(lambda P: _noisy_evaluate(P, None)[0]),
                           _solo(lambda P: _noisy_evaluate(P, None)[1]), row)
        assert_bitwise_equal(res, ref)


def test_relative_offset_stops_noisy_fits_early_near_the_tight_optimum(monkeypatch):
    loose = stacked_levenberg_marquardt(_noisy_evaluate, _NOISY_P0)
    monkeypatch.setattr(lsq, "RO_TOL", 0.0)
    tight = stacked_levenberg_marquardt(_noisy_evaluate, _NOISY_P0)
    early = [i for i, (a, b) in enumerate(zip(loose, tight)) if a.n_iter < b.n_iter]
    assert early  # the clause stops some rows, and never delays one
    assert all(a.n_iter <= b.n_iter for a, b in zip(loose, tight))
    for i, (a, b) in enumerate(zip(loose, tight)):
        assert a.converged and b.converged and a.message == b.message == "converged"
        ci = np.array(ci95(covariance(b.jac, b.ssr), _T.size - 2, np.eye(2)))
        assert (np.abs(a.params - b.params) <= 1e-4 * ci).all(), i
    for i in early:
        # A row the clause stopped recorded an offset below the tolerance,
        # and the loop without the clause passed through the same iterate.
        assert loose[i].relative_offset < RO_TOL
        (capped,) = stacked_levenberg_marquardt(_noisy_evaluate, _NOISY_P0[i:i + 1],
                                                max_iter=loose[i].n_iter)
        assert np.array_equal(capped.params, loose[i].params)


def test_newton_rows_match_solo_runs_and_the_reference():
    # A model that returns its curvature takes damped Newton steps near the
    # optimum; each stacked row is bitwise its start run alone and the
    # one-start oracle, in each of the four end states.
    p0 = np.array([[1.0, 0.5], [-5.0, 1.0], [0.1, 20.0], [1.0, -1000.0]])
    with np.errstate(all="ignore"):
        stacked = stacked_levenberg_marquardt(_newton_evaluate, p0, max_iter=10)
        gauss_newton = stacked_levenberg_marquardt(
            lambda P, rows: _newton_evaluate(P, rows)[:2], p0, max_iter=10)
        for i, (row, res) in enumerate(zip(p0, stacked)):
            ref = reference_lm(_solo(lambda P: _decay_residual(P, _NOISY_Y)),
                               _solo(_decay_jacobian), row, max_iter=10,
                               curvature=_solo(lambda P: _decay_curvature(P, _NOISY_Y)))
            assert_bitwise_equal(res, ref)
            (alone,) = stacked_levenberg_marquardt(_newton_evaluate, row[None], max_iter=10)
            assert_bitwise_equal(alone, ref)
            _, want, _ = _newton_evaluate(res.params[None], np.array([i]))
            assert res.jac.tobytes() == want[0].tobytes(), res.message
    assert [r.message for r in stacked] == [
        "converged", "no decreasing step", "iteration cap reached",
        "non-finite residual or Jacobian"]
    # The Newton steps were taken: the converged and capped rows moved
    # otherwise than on Gauss-Newton steps alone.
    for i in (0, 2):
        assert not np.array_equal(stacked[i].params, gauss_newton[i].params)


def test_newton_rows_reach_the_gauss_newton_optimum():
    # The decay fit to the noisy data, with the relative-offset stop on the
    # Gauss-Newton step solved beside each Newton step: every row matches
    # the oracle and ends at the Gauss-Newton rows' optimum.
    def newton(P, rows):
        r, jac = _noisy_evaluate(P, rows)
        return r, jac, _decay_curvature(P, _NOISY_Y)

    gauss_newton = stacked_levenberg_marquardt(_noisy_evaluate, _NOISY_P0)
    stacked = stacked_levenberg_marquardt(newton, _NOISY_P0)
    for row, gn, res in zip(_NOISY_P0, gauss_newton, stacked):
        ref = reference_lm(_solo(lambda P: _noisy_evaluate(P, None)[0]),
                           _solo(lambda P: _noisy_evaluate(P, None)[1]), row,
                           curvature=_solo(lambda P: _decay_curvature(P, _NOISY_Y)))
        assert_bitwise_equal(res, ref)
        assert res.converged and res.message == "converged"
        ci = np.array(ci95(covariance(res.jac, res.ssr), _T.size - 2, np.eye(2)))
        assert (np.abs(res.params - gn.params) <= 1e-3 * ci).all()


def test_only_gauss_newton_systems_are_solved_without_a_newton_row(monkeypatch):
    # A row takes a Newton step only once its last step's relative offset
    # is below 1, so every first iteration, and every Gauss-Newton model,
    # solves one system per row; the Newton iterations solve two.
    def newton(P, rows):
        r, jac = _noisy_evaluate(P, rows)
        return r, jac, _decay_curvature(P, _NOISY_Y)

    shapes = []
    real = lsq._solve_damped
    monkeypatch.setattr(lsq, "_solve_damped",
                        lambda a, *rest: shapes.append(a.shape) or real(a, *rest))
    stacked_levenberg_marquardt(_noisy_evaluate, _NOISY_P0)
    assert shapes and all(shape[-3:] == shape for shape in shapes)
    shapes.clear()
    stacked = stacked_levenberg_marquardt(newton, _NOISY_P0)
    assert shapes[0] == (5, 2, 2)
    assert {len(shape) for shape in shapes} == {3, 4}
    assert all(res.converged for res in stacked)
