import warnings

import numpy as np
import pytest

import heatflow as hf
from heatflow.errors import DensityUnderflowError, HermiteAtTimeZeroError
from heatflow.semigroup import concavity_profile, ou_expectation


def gaussian_rho_t(rho, t):
    e2 = np.exp(-2.0 * t)
    return rho * e2 / (1.0 + rho * (1.0 - e2))


def gaussian_log_ft(rho, shift, x, t):
    """Complete-the-square closed form of log P_t e^{-V} for V = rho x^2/2 + shift."""
    e2 = np.exp(-2.0 * t)
    s2 = 1.0 - e2
    return (-0.5 * np.log(1.0 + rho * s2)
            - 0.5 * gaussian_rho_t(rho, t) * x**2 - shift)


@pytest.fixture(scope="module")
def ev_half(gaussian_half, gh_scheme):
    return hf.SemigroupEvaluator(gaussian_half, gh_scheme)


@pytest.fixture(scope="module")
def ev_one(gaussian_one, gh_scheme):
    return hf.SemigroupEvaluator(gaussian_one, gh_scheme)


@pytest.fixture(scope="module")
def ev_const(gh_scheme):
    return hf.SemigroupEvaluator(hf.potentials.constant(), gh_scheme)


# -- basic fixed points ------------------------------------------------------------


def test_constant_density_is_fixed_point(ev_const):
    for t in (0.0, 0.3, 2.0, 10.0):
        assert ev_const.pt_f(np.array([1.7]), t) == pytest.approx(1.0, abs=1e-12)


def test_linear_integrand_eigenfunction(gh_scheme):
    # E[(e^{-t} x + s Z)] = e^{-t} x: the identity decays at rate e^{-t}
    for t in (0.0, 0.4, 1.5):
        val = ou_expectation(lambda p: p[..., 0], np.array([2.0]), t, gh_scheme)
        assert val == pytest.approx(2.0 * np.exp(-t), abs=1e-12)


def test_pt_f_at_zero_time_is_exact(std_bump, gh_scheme):
    ev = hf.SemigroupEvaluator(std_bump, gh_scheme)
    x = np.array([0.37])
    assert ev.pt_f(x, 0.0) == std_bump.density(x[None, :])[0]


# -- Gaussian closed forms -----------------------------------------------------------


@pytest.mark.parametrize("rho", [-0.5, 0.5, 1.0, 3.0])
def test_pt_f_gaussian_closed_form(rho, gh_scheme):
    p = hf.normalize(hf.gaussian(rho))
    ev = hf.SemigroupEvaluator(p, gh_scheme)
    for t in (0.1, 0.5, 2.0):
        for x in (-2.0, 0.3, 1.7):
            want = np.exp(gaussian_log_ft(rho, p.shift, x, t))
            got = ev.pt_f(np.array([x]), t)
            assert got == pytest.approx(want, rel=1e-8)


def test_grad_pt_f_gaussian_closed_form(ev_one, gaussian_one):
    rho = 1.0
    for t in (0.2, 1.0):
        for x in (-1.5, 0.8):
            f = np.exp(gaussian_log_ft(rho, gaussian_one.shift, x, t))
            want = -gaussian_rho_t(rho, t) * x * f
            got = ev_one.grad_pt_f(np.array([x]), t)[0]
            assert got == pytest.approx(want, rel=1e-8)


def test_grad_pt_f_matches_finite_differences(bump_evaluator):
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(50):
        x = rng.uniform(-3, 3)
        t = rng.uniform(0.05, 2.5)
        g = bump_evaluator.grad_pt_f(np.array([x]), t)[0]
        fd = (bump_evaluator.pt_f(np.array([x + h]), t)
              - bump_evaluator.pt_f(np.array([x - h]), t)) / (2 * h)
        assert g == pytest.approx(fd, rel=1e-5)


def test_grad_constant_density_zero(ev_const):
    assert abs(ev_const.grad_pt_f(np.array([0.9]), 0.7)[0]) < 1e-14


# -- Hessian routes ---------------------------------------------------------------------


def test_hessian_routes_agree_on_bump(bump_evaluator):
    xs = np.linspace(-3, 3, 13)[:, None]
    cm = bump_evaluator.hess_pt_f(xs, 0.5, route="commute")
    hm = bump_evaluator.hess_pt_f(xs, 0.5, route="hermite")
    assert np.max(np.abs(cm - hm)) < 1e-6


def test_hermite_route_needs_positive_time(bump_evaluator):
    with pytest.raises(HermiteAtTimeZeroError):
        bump_evaluator.hess_pt_f(np.array([0.0]), 0.0, route="hermite")


def test_hermite_zero_matrix_for_constant(ev_const):
    h = ev_const.hess_pt_f(np.array([0.5]), 0.8, route="hermite")
    assert abs(h[0, 0]) < 1e-12


def test_hermite_operator_norm_bound(bump_evaluator, std_bump):
    # E[(Z^2-1) f] <= sup f * E[Z^2] pointwise under positive weights
    sup_f = float(np.max(std_bump.density(np.linspace(-6, 6, 401)[:, None])))
    for t in (0.1, 0.5, 1.5):
        xs = np.linspace(-4, 4, 17)[:, None]
        h = bump_evaluator.hess_pt_f(xs, t, route="hermite")
        bound = sup_f / np.expm1(2.0 * t)
        assert np.max(h) <= bound + 1e-10


# -- drift ---------------------------------------------------------------------------------


def test_drift_constant_zero(ev_const):
    assert abs(ev_const.drift(np.array([1.2]), 0.9)[0]) < 1e-14


def test_drift_gaussian_closed_form(ev_one):
    for t in (0.05, 0.3, 1.0, 3.0):
        for x in (-2.0, 0.7, 3.1):
            got = ev_one.drift(np.array([x]), t)[0]
            assert got == pytest.approx(gaussian_rho_t(1.0, t) * x, rel=1e-7)


def test_drift_bound_regularized_tail(regularized_linear_tail, gh_scheme):
    ev = hf.SemigroupEvaluator(regularized_linear_tail, gh_scheme)
    xs = np.linspace(-4, 4, 41)[:, None]
    for t in (0.1, 0.5, 1.0, 2.0):
        sup = np.max(np.abs(ev.drift(xs, t)))
        assert sup <= np.exp(-t) * 1.0 + 1e-4


def test_drift_underflow_raises(gh_scheme):
    p = hf.normalize(hf.gaussian(3.0))
    ev = hf.SemigroupEvaluator(p, gh_scheme)
    with pytest.raises(DensityUnderflowError):
        ev.drift(np.array([40.0]), 0.001)


@pytest.mark.parametrize("t", [0.0, 0.01])
def test_zero_density_row_raises_with_its_index(walled_gaussian, gh_scheme, t):
    # V is +inf at every node of the row at -50, so log f_t is NaN there:
    # it must count as below the floor, and without a numpy warning first
    ev = hf.SemigroupEvaluator(walled_gaussian, gh_scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DensityUnderflowError) as exc:
            ev.drift(np.array([[0.5], [-50.0], [1.0]]), t)
    assert exc.value.rows == [1]


def test_mollified_tail_drift_finite_far_out():
    # the mollified density underflows past x ~ -43, but its log-space
    # quadrature keeps grad V finite there, so the drift at -41 is finite
    # and equals -d/dx log f_t
    ev = hf.SemigroupEvaluator(hf.mollify(hf.linear_tail(), 0.5),
                               hf.QuadratureScheme(dim=1, node_count=64))
    x, t, h = -41.0, 0.02, 1e-4
    drift = ev.drift(np.array([x]), t)[0]
    fd = -(ev.log_pt_f(np.array([x + h]), t) - ev.log_pt_f(np.array([x - h]), t)) / (2 * h)
    assert np.isfinite(drift)
    assert drift == pytest.approx(fd, rel=1e-8)


# -- log-concavity profiles -------------------------------------------------------------------


def test_profile_gaussian_equality_case(ev_half):
    # the curvature route is exact for Gaussians
    grid = hf.GridSpec(-2, 2, 9)
    lam = 0.5
    for t in (0.05, 0.2, 1.0, 2.0):
        got = concavity_profile(ev_half, grid, t)
        want = hf.curvature_profile_value(lam, t)
        assert got == pytest.approx(want, rel=1e-6)


def test_profile_log_concave_stays_log_concave(ev_one):
    grid = hf.GridSpec(-3, 3, 13)
    for t in (0.1, 0.5, 2.0):
        assert concavity_profile(ev_one, grid, t) <= 1e-8


def test_profile_sharpness_meets_level(gh_scheme):
    t = 0.5 * np.log(2.0)
    T = 6.0
    p = hf.normalize(hf.sharpness(T, hf.sharpness_critical_scale(t)))
    ev = hf.SemigroupEvaluator(p, gh_scheme)
    got = ev.log_concavity(np.array([0.0]), t)
    level = T * T / (3.0 * np.expm1(2.0 * t))
    assert got >= 0.9 * level


@pytest.mark.parametrize("p_fix", ["gaussian_half", "std_bump"])
def test_curvature_budget_invariant(p_fix, gh_scheme, request):
    p = request.getfixturevalue(p_fix)
    ev = hf.SemigroupEvaluator(p, gh_scheme)
    grid = hf.GridSpec(-4, 4, 33)
    lam = p.curvature_lower
    for t in (0.05, 0.2, 0.5, 1.0):
        if lam * (1.0 - np.exp(-2.0 * t)) < 0.9:
            got = concavity_profile(ev, grid, t)
            assert got <= hf.curvature_profile_value(lam, t) + 1e-4


@pytest.mark.parametrize("build", [
    lambda: hf.normalize(hf.bump(0.0, 0.5, 0.5)),
    lambda: hf.normalize(hf.vt_counterexample(3.0)),
    lambda: hf.normalize(hf.sharpness(2.0, 0.8)),
])
def test_oscillation_budget_invariant(build, gh_scheme):
    p = build()
    ev = hf.SemigroupEvaluator(p, gh_scheme)
    grid = hf.GridSpec(-4, 4, 33)
    for t in (0.1, 0.3, 1.0):
        got = concavity_profile(ev, grid, t)
        assert got <= hf.oscillation_profile_value(p.oscillation, t) + 1e-4


# -- semigroup structure -------------------------------------------------------------------------


def test_semigroup_composition_via_tabulation(std_bump, gh_scheme):
    # P_{s+t} f equals P_s applied to a dense tabulation of f_t
    ev = hf.SemigroupEvaluator(std_bump, gh_scheme)
    t, s = 0.25, 0.4
    grid = np.linspace(-10, 10, 16001)
    vt_vals = ev.v_t(grid[:, None], t)
    mid = hf.tabulated(grid, vt_vals, normalized=True)
    ev_mid = hf.SemigroupEvaluator(mid, gh_scheme)
    xs = np.linspace(-4, 4, 17)[:, None]
    direct = ev.pt_f(xs, s + t)
    stepped = ev_mid.pt_f(xs, s)
    assert np.max(np.abs(direct - stepped)) < 1e-6


def test_sup_contraction(std_bump, gh_scheme):
    ev = hf.SemigroupEvaluator(std_bump, gh_scheme)
    xs = np.linspace(-6, 6, 241)[:, None]
    f0 = std_bump.density(xs)
    for t in (0.2, 1.0, 4.0):
        ft = ev.pt_f(xs, t)
        assert ft.max() <= f0.max() + 1e-10
        assert ft.min() >= f0.min() - 1e-10


def test_long_time_limit(std_bump, gh_scheme):
    ev = hf.SemigroupEvaluator(std_bump, gh_scheme)
    xs = np.linspace(-4, 4, 33)[:, None]
    assert np.max(np.abs(ev.pt_f(xs, 10.0) - 1.0)) < 1e-4


def test_batch_matches_pointwise(bump_evaluator):
    xs = np.linspace(-2, 2, 7)
    batch = bump_evaluator.pt_f(xs[:, None], 0.6)
    single = np.array([bump_evaluator.pt_f(np.array([x]), 0.6) for x in xs])
    assert np.array_equal(batch, single)


def test_monte_carlo_scheme_pt_f(gaussian_one):
    mc = hf.QuadratureScheme(dim=1, kind="monte_carlo", sample_count=200_000,
                             seed=5)
    ev = hf.SemigroupEvaluator(gaussian_one, mc)
    got = ev.pt_f(np.array([1.0]), 0.5)
    e2 = np.exp(-1.0)
    want = np.exp(-0.5 * np.log(2.0 - e2) - 0.5 * e2 / (2.0 - e2)
                  + 0.5 * np.log(2.0))
    assert got == pytest.approx(want, rel=5e-3)


def test_high_dim_needs_monte_carlo():
    p = hf.gaussian(1.0, dim=4)
    with pytest.raises(hf.errors.DimensionTooHighError):
        hf.normalize(p, hf.QuadratureScheme(dim=4))
    mc = hf.QuadratureScheme(dim=4, kind="monte_carlo", sample_count=400_000,
                             seed=3)
    q = hf.normalize(p, mc)
    assert q.shift == pytest.approx(-2.0 * np.log(2.0), abs=2e-2)
