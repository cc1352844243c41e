import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import heatflow as hf
from heatflow import potentials
from heatflow.errors import HeatflowError
from heatflow.potentials import (
    EVAL_PAD,
    EVAL_POINTS_PER_UNIT,
    Potential,
    log_mass,
    sym_eig_bounds,
)
from heatflow.quadrature import ADAPTIVE_REL_TOL


def quad_mass(p, lo=-40.0, hi=60.0):
    """Independent adaptive check of the gamma-mass of e^{-V}."""
    val, err = integrate.quad(
        lambda x: p.lebesgue_density(np.array([[x]]))[0], lo, hi,
        points=[k for k in p.kinks] or None, limit=300,
    )
    return val


# -- normalization -------------------------------------------------------------


def test_normalize_identity_case():
    p = hf.normalize(hf.gaussian(0.0))
    assert p.shift == pytest.approx(0.0, abs=1e-12)
    assert p.normalized


def test_normalize_gaussian_closed_form(gaussian_one):
    # mass of e^{-x^2/2} under gamma is 1/sqrt(2)
    assert gaussian_one.shift == pytest.approx(-0.5 * np.log(2.0), abs=1e-12)


def test_normalize_linear_tail_constant():
    p = hf.normalize(hf.linear_tail())
    c0 = p.shift
    assert 0.5 <= np.exp(-c0) <= 1.0
    # independent adaptive integration agrees with the recorded tolerance
    mass = quad_mass(p)
    tol = max(10.0 * (p.norm_tol or 1e-10), 1e-9)
    assert abs(mass - 1.0) <= tol


def test_normalize_idempotent(std_bump):
    again = hf.normalize(std_bump)
    assert abs(again.shift - std_bump.shift) < 1e-9


@pytest.mark.parametrize("rho", [-0.5, 0.5, 3.0])
def test_normalized_mass_is_one(rho):
    p = hf.normalize(hf.gaussian(rho))
    assert quad_mass(p) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("rho", [-0.95, -0.99])
def test_normalize_wide_gaussian_closed_form(rho):
    # the estimate needs rules whose outer weights underflow to 0; their
    # log-weights keep those nodes in the sum
    p = hf.normalize(hf.gaussian(rho))
    assert abs(p.shift + 0.5 * np.log1p(rho)) <= 1e-12
    assert p.norm_converged is True


def test_normalize_records_convergence():
    assert hf.gaussian(1.0).norm_converged is None
    p = hf.normalize(hf.gaussian(1.0))
    assert p.norm_converged is True and p.norm_tol < ADAPTIVE_REL_TOL
    # the regularized linear tail stops at the node cap, and is still
    # normalized
    tail = hf.from_config({"family": "linear_tail", "transforms": [
        {"op": "lipschitz_regularize", "l": 1.0, "r": 6.0}]},
        hf.QuadratureScheme(dim=1, node_count=64))
    assert tail.normalized and tail.norm_converged is False
    assert ADAPTIVE_REL_TOL < tail.norm_tol < 1e-8
    # Monte Carlo, the rule above dim 3, has no convergence test
    mc = hf.normalize(hf.gaussian(1.0, dim=4), hf.QuadratureScheme(
        dim=4, sample_count=1000))
    assert mc.normalized and mc.norm_converged is None


def test_normalize_refuses_a_scheme_of_another_dimension():
    # a dim-1 rule would estimate the mass of a 4-d target as that of its
    # first axis
    p = hf.gaussian(1.0, dim=4)
    with pytest.raises(ValueError, match="scheme dimension must match"):
        hf.normalize(p, hf.QuadratureScheme(dim=1))
    with pytest.raises(ValueError, match="scheme dimension must match"):
        log_mass(hf.gaussian(1.0), hf.QuadratureScheme(dim=4, sample_count=4000, seed=1))


def test_normalize_diverges_for_super_gaussian():
    bad = Potential(dim=1, raw_fn=lambda x: -0.6 * x[..., 0] ** 2)
    with pytest.raises(HeatflowError, match="grow without stabilizing"):
        hf.normalize(bad)


def test_gaussian_family_requires_integrable_rho():
    with pytest.raises(ValueError, match="requires rho > -1"):
        hf.gaussian(-1.0)


# -- metadata validation ----------------------------------------------------------


def test_validate_gaussian_curvature_ok():
    p = dataclasses.replace(hf.gaussian(1.0), curvature_lower=0.0)
    rep = hf.validate_metadata(p, hf.GridSpec(-4, 4, 41))
    assert rep.curvature_violation == 0.0


def test_validate_vt_declared_curvature():
    p = hf.vt_counterexample(4.0)
    rep = hf.validate_metadata(p, hf.GridSpec(-1, 6, 1401))
    assert p.curvature_lower == 128.0
    assert rep.curvature_violation <= 1e-6


def test_validate_bump_oscillation_violation():
    p = dataclasses.replace(hf.bump(0.0, 1.0, 0.5), oscillation=0.4)
    rep = hf.validate_metadata(p, hf.GridSpec(-6, 6, 241))
    assert rep.oscillation_violation == pytest.approx(0.1, abs=1e-3)


def test_validate_never_mutates(std_bump):
    before = std_bump.oscillation
    hf.validate_metadata(std_bump, hf.GridSpec(-3, 3, 31))
    assert std_bump.oscillation == before


# -- analytic derivatives vs finite differences -------------------------------------


FAMILIES = [
    hf.gaussian(1.0),
    hf.gaussian(-0.5),
    hf.bump(0.3, 0.8, 0.5),
    hf.linear_tail(),
    hf.vt_counterexample(3.0),
    hf.sharpness(2.0, 0.7),
]


@pytest.mark.parametrize("p", FAMILIES, ids=lambda p: p.name)
def test_fd_gradient_matches_analytic(p):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-5, 5, size=(100, p.dim))
    # keep stencils clear of kink abscissas, where V is not C^3
    for k in p.kinks:
        pts = pts[np.abs(pts[:, 0] - k) > 5e-3]
    stripped = dataclasses.replace(p, value_grad_fn=None, hess_fn=None)
    g_fd = stripped.grad(pts)
    g = p.grad(pts)
    scale = np.maximum(np.abs(g), 1.0)
    assert np.max(np.abs(g_fd - g) / scale) < 1e-5


def test_fd_hessian_matches_analytic_2d():
    p = hf.bump([0.2, -0.1], 0.9, 0.4, dim=2)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(40, 2))
    stripped = dataclasses.replace(p, value_grad_fn=None, hess_fn=None)
    h_fd = stripped.hess(pts)
    h = p.hess(pts)
    assert np.max(np.abs(h_fd - h)) < 1e-5


def test_sym_eig_bounds_match_numpy():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((30, 2, 2))
    mats = (a + np.swapaxes(a, -1, -2)) / 2
    lo, hi = sym_eig_bounds(mats)
    vals = np.linalg.eigvalsh(mats)
    assert np.allclose(lo, vals[:, 0]) and np.allclose(hi, vals[:, -1])


# -- builtins ---------------------------------------------------------------------


def test_vt_active_interval():
    T = 4.0
    p = hf.vt_counterexample(T)
    xs = np.array([[15 * T / 16 - 1e-6], [15 * T / 16 + 1e-3],
                   [17 * T / 16 - 1e-3], [17 * T / 16 + 1e-6]])
    vals = p.raw_fn(xs)
    assert vals[0] == 0.0 and vals[3] == 0.0
    assert vals[1] > 0.0 and vals[2] > 0.0


def test_linear_tail_density_exponential():
    p = hf.normalize(hf.linear_tail())
    xs = np.linspace(1.5, 5.0, 8)
    dens = p.lebesgue_density(xs[:, None])
    # log-density slope is exactly -1 past the kink
    slopes = np.diff(np.log(dens)) / np.diff(xs)
    assert np.allclose(slopes, -1.0, atol=1e-12)


def test_sharpness_critical_scale_saturates_domain():
    t = 0.4
    s = hf.sharpness_critical_scale(t)
    p = hf.sharpness(3.0, s)
    assert p.curvature_lower * (1 - np.exp(-2 * t)) == pytest.approx(1.0, abs=1e-12)


# -- mollify -----------------------------------------------------------------------


def test_mollify_small_sigma_preserves_distribution(gaussian_one):
    from heatflow.diagnostics import TargetCdf
    sm = hf.normalize(hf.mollify(gaussian_one, 1e-3))
    base = TargetCdf(gaussian_one)
    out = TargetCdf(sm)
    xs = np.linspace(-4, 4, 161)
    assert np.max(np.abs(base.cdf(xs) - out.cdf(xs))) < 1e-3


def test_mollify_gaussian_closed_form():
    # N(0, s^2) convolved with N(0, sigma^2) is N(0, s^2 + sigma^2)
    rho, sigma = 1.0, 0.6
    p = hf.normalize(hf.gaussian(rho))
    sm = hf.mollify(p, sigma)
    s2 = 1.0 / (1.0 + rho)
    rho_out = 1.0 / (s2 + sigma**2) - 1.0
    xs = np.linspace(-3, 3, 25)[:, None]
    got = sm.value(xs) - sm.value(np.zeros((1, 1)))
    want = rho_out * xs[:, 0] ** 2 / 2.0
    assert np.max(np.abs(got - want)) < 1e-8


def test_mollify_far_tail_closed_form():
    # the nodes a x + tau Z (a = 1/(1+sigma^2)) all lie where linear_tail is 0
    # for x <= -41, so V_sigma = C - sigma^2 |x|^2 / (2 (1 + sigma^2)) there
    sm = hf.mollify(hf.linear_tail(), 0.5)
    xs = np.array([[-100.0], [-41.0]])
    v = sm.value(xs)
    assert v[0] - v[1] == pytest.approx(-831.9, abs=1e-9)
    assert sm.grad(xs)[:, 0] == pytest.approx([20.0, 8.2], abs=1e-9)
    assert sm.hess(xs)[:, 0, 0] == pytest.approx([-0.2, -0.2], abs=1e-9)


@pytest.mark.parametrize("rho", [1.0, 3.0])
def test_mollify_quadratic_base_far_tail_closed_form(rho):
    # N(0, s^2) convolved with N(0, sigma^2), s^2 = 1/(1+rho): V grows
    # quadratically, so the integrand peaks well inside a x, and only nodes
    # centred on that peak keep the far tail right
    sigma = 0.5
    var = 1.0 / (1.0 + rho) + sigma**2
    sm = hf.mollify(hf.gaussian(rho), sigma)
    xs = np.array([[0.0], [-10.0], [-41.0], [-100.0]])
    want = (0.5 * np.log((1.0 + rho) * var) + (1.0 / var - 1.0) * xs[:, 0] ** 2 / 2.0)
    assert np.allclose(sm.value(xs), want, rtol=1e-13, atol=1e-12)
    assert np.allclose(sm.grad(xs)[:, 0], (1.0 / var - 1.0) * xs[:, 0], rtol=1e-13, atol=1e-12)
    assert np.allclose(sm.hess(xs)[:, 0, 0], 1.0 / var - 1.0, rtol=1e-11, atol=1e-12)


def test_mollify_preserves_mass(std_bump):
    # convolution preserves mass, so a normalized potential stays normalized
    lm, _, _ = log_mass(hf.mollify(std_bump, 0.4), hf.QuadratureScheme(dim=1))
    assert abs(lm) < 1e-10


def test_mollify_refuses_dim_above_the_tensor_cap():
    with pytest.raises(ValueError, match="mollify's Gauss-Hermite rule is capped at dim 3"):
        hf.mollify(hf.gaussian(1.0, dim=4), 0.5)


def test_mollify_declares_no_grad_bound():
    # |V'| of a mollified linear tail grows without bound, so no window sup
    # may stand in for sup |grad V| and certify a transport
    sm = hf.mollify(hf.normalize(hf.linear_tail()), 0.5)
    assert sm.grad_sup_norm is None


# -- inf-convolution envelope ---------------------------------------------------------


def test_envelope_of_already_lipschitz_potential(std_bump):
    # sup|V'| ~ 0.61 < l = 2: the envelope equals V up to the normalizing shift
    reg = hf.lipschitz_regularize(std_bump, l=2.0, r=8.0)
    xs = np.linspace(-4, 4, 81)[:, None]
    diff = reg.value(xs) - std_bump.value(xs)
    assert np.max(diff) - np.min(diff) < 1e-4


def test_envelope_moreau_closed_form():
    # V = x^2: cone slope 2 gives x^2 inside |x|<=1, 2|x|-1 beyond
    p = Potential(dim=1, raw_fn=lambda x: x[..., 0] ** 2)
    reg = hf.lipschitz_regularize(p, l=2.0, r=10.0)
    xs = np.linspace(-6, 6, 200)
    want = np.where(np.abs(xs) <= 1.0, xs**2, 2.0 * np.abs(xs) - 1.0)
    got = reg.value(xs[:, None])
    diff = got - want
    assert np.max(diff) - np.min(diff) < 5e-3


def test_envelope_zero_slope_is_constant():
    reg = hf.lipschitz_regularize(hf.normalize(hf.gaussian(1.0)), l=0.0, r=6.0)
    xs = np.linspace(-5, 5, 101)[:, None]
    assert np.ptp(reg.value(xs)) < 1e-12


def test_regularized_target_is_normalized_once(monkeypatch):
    # lipschitz_regularize leaves normalization to from_config, whose final
    # normalize estimates the mass once
    reg = hf.lipschitz_regularize(hf.linear_tail(), l=1.0, r=6.0)
    assert not reg.normalized and reg.shift == 0.0
    calls = []

    def counted(p, scheme):
        calls.append(p.name)
        return log_mass(p, scheme)

    monkeypatch.setattr(potentials, "log_mass", counted)
    got = hf.from_config({"family": "linear_tail", "transforms": [
        {"op": "lipschitz_regularize", "l": 1.0, "r": 6.0}]})
    assert calls == [reg.name]
    assert got.shift == hf.normalize(reg).shift


def test_envelope_slopes_bounded(regularized_linear_tail):
    reg = regularized_linear_tail
    assert reg.grad_sup_norm == 1.0
    xs = np.linspace(-8, 8, 2001)
    vals = reg.value(xs[:, None])
    slopes = np.abs(np.diff(vals) / np.diff(xs))
    assert slopes.max() <= 1.0 * (1 + 1e-3)


def brute_envelope(p, l, r, xs, n_grid, rows=512):
    """min over the y-grid of V(y) + l |x - y| by the full (x, y) table, and
    over the query point itself inside the ball."""
    ys = np.linspace(-r, r, n_grid)
    vy = p.value(ys[:, None])
    out = np.concatenate([
        np.min(vy[None, :] + l * np.abs(blk[:, None] - ys[None, :]), axis=1)
        for blk in np.array_split(xs, -(-xs.size // rows))
    ])
    inside = np.abs(xs) <= r
    out[inside] = np.minimum(out[inside], p.value(xs[inside, None]))
    return out


@pytest.mark.parametrize("p, l, r", [
    (hf.linear_tail(), 1.0, 6.0),
    (hf.bump(0.0, 0.5, 0.5), 2.0, 8.0),
    (Potential(dim=1, raw_fn=lambda x: x[..., 0] ** 2, name="square"), 2.0, 10.0),
], ids=lambda v: getattr(v, "name", str(v)))
def test_envelope_sweeps_match_brute_force(monkeypatch, p, l, r):
    span = r + EVAL_PAD
    xs = np.linspace(-span, span, max(int(2 * span * EVAL_POINTS_PER_UNIT) + 1, 801))
    for n_fine in (4096, 8192):
        monkeypatch.setattr(potentials, "ENVELOPE_GRID_POINTS", n_fine // 2)
        reg = hf.lipschitz_regularize(p, l, r)
        table = reg.raw_fn(xs[:, None])  # the stored knots, before the shift
        assert np.max(np.abs(table - brute_envelope(p, l, r, xs, n_fine))) <= 1e-12


def test_envelope_grid_refinement_guard(monkeypatch):
    p = Potential(dim=1, raw_fn=lambda x: np.cos(40.0 * x[..., 0]) * 8.0)
    monkeypatch.setattr(potentials, "ENVELOPE_GRID_POINTS", 64)
    monkeypatch.setattr(potentials, "ENVELOPE_GRID_TOL", 1e-7)
    with pytest.raises(HeatflowError, match="envelope moved .* under grid refinement"):
        hf.lipschitz_regularize(p, l=1.0, r=6.0)


# -- dilation reduction ----------------------------------------------------------------


def test_caffarelli_identity_at_zero_deficit(gaussian_one):
    q, a = hf.caffarelli_reduction(gaussian_one)
    assert a == 1.0 and q is gaussian_one


def test_caffarelli_dilation_constant():
    p = dataclasses.replace(hf.gaussian(-0.75), curvature_lower=0.75)
    p = hf.normalize(p)
    _, a = hf.caffarelli_reduction(p)
    assert a == pytest.approx(2.0, rel=1e-12)


def test_caffarelli_keeps_the_normalization_record():
    # the exact shift (dim/2) log(1 - lam) inherits the input's error
    p = hf.normalize(hf.gaussian(-0.5))
    q, _ = hf.caffarelli_reduction(p)
    assert q.normalized and q.norm_converged is True
    assert q.norm_tol == p.norm_tol is not None


def test_caffarelli_rejects_large_deficit():
    p = hf.vt_counterexample(3.0)
    with pytest.raises(ValueError, match="needs declared curvature_lower < 1"):
        hf.caffarelli_reduction(p)


def test_caffarelli_pushforward_identity(gaussian_half):
    # lam = 1/2: the reduced measure is gamma itself; the dilation by
    # 1/sqrt(1-lam) must push its density onto the target's exactly
    q, a = hf.caffarelli_reduction(gaussian_half)
    assert a == pytest.approx(np.sqrt(2.0), rel=1e-12)
    us = np.linspace(-4, 4, 81)[:, None]
    lhs = q.lebesgue_density(us / a) / a
    rhs = gaussian_half.lebesgue_density(us)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_caffarelli_output_log_concave(gaussian_half):
    q, _ = hf.caffarelli_reduction(gaussian_half)
    rep = hf.validate_metadata(q, hf.GridSpec(-4, 4, 81))
    assert rep.min_hess_eigenvalue >= -1e-6


# -- tabulated and config loading ---------------------------------------------------------


def test_tabulated_interpolation_and_continuation():
    # one cell rule: np.interp inside the table, bit for bit
    rng = np.random.default_rng(2)
    grid = np.sort(rng.uniform(-2.0, 3.0, 300))
    values = np.sin(3.0 * grid) + grid**2
    p = hf.tabulated(grid, values)
    slopes = np.diff(values) / np.diff(grid)
    inner = np.concatenate([grid[:-1], rng.uniform(grid[0], grid[-1], 5000)])
    assert np.array_equal(p.value(inner[:, None]), np.interp(inner, grid, values))
    # beyond both ends the end cells continue their slopes
    below = grid[0] - np.array([1e-9, 0.5, 40.0])
    above = grid[-1] + np.array([0.0, 1e-9, 0.5, 40.0])
    assert np.allclose(p.value(below[:, None]), values[0] + slopes[0] * (below - grid[0]),
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(p.value(above[:, None]), values[-1] + slopes[-1] * (above - grid[-1]),
                       rtol=1e-12, atol=1e-12)
    assert np.all(p.grad(below[:, None])[:, 0] == slopes[0])
    assert np.all(p.grad(above[:, None])[:, 0] == slopes[-1])


def searchsorted_calls(fn):
    """(number of np.searchsorted calls made while fn() runs, its result)"""
    calls = []
    real = np.searchsorted

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "searchsorted", counted)
        out = fn()
    return len(calls), out


def assert_searchsorted_cell_rule(grid, seed):
    """tabulated(grid) puts every probe point in the cell
    clip(searchsorted(grid, t, "right") - 1, 0, n - 2) and evaluates that
    cell's line bit for bit; returns the searchsorted calls it made."""
    n = grid.size
    # slopes 1, 2, ..., n - 1: distinct, so a gradient names its cell
    values = np.concatenate([[0.0], np.cumsum(np.arange(1, n) * np.diff(grid))])
    slopes = np.diff(values) / np.diff(grid)
    assert np.unique(slopes).size == n - 1
    p = hf.tabulated(grid, values)
    span = grid[-1] - grid[0]
    rng = np.random.default_rng(seed)
    t = np.concatenate([
        grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
        0.5 * (grid[:-1] + grid[1:]),
        rng.uniform(grid[0] - span, grid[-1] + span, 200),
        grid[0] - span * np.array([1e-9, 1.0, 1e6]), grid[-1] + span * np.array([1e-9, 1.0, 1e6]),
        [np.inf, -np.inf, np.nan, 1e308, -1e308, 0.0, -0.0],
    ])
    rng.shuffle(t)
    x = t[:, None]
    i = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, n - 2)
    # the lookup raises no RuntimeWarning (an error in tier-1); grad comes
    # with the fused value, whose line overflows at +-1e308 as value's does
    with np.errstate(over="ignore"):
        calls, g = searchsorted_calls(lambda: p.grad(x))
    assert np.array_equal(g[:, 0], slopes[i])
    # the line itself overflows at +-1e308 and +-inf, in both rules alike
    with np.errstate(over="ignore", invalid="ignore"):
        expect = values[i] + slopes[i] * (t - grid[i])
        v, g = p.value_and_grad(x)
        assert np.array_equal(p.value(x), expect, equal_nan=True)
    assert np.array_equal(v, expect, equal_nan=True)
    assert np.array_equal(g[:, 0], slopes[i])
    return calls


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5000), st.floats(-1e3, 1e3), st.floats(-3.0, 3.0),
       st.integers(0, 2**32 - 1))
def test_even_grid_lookup_matches_searchsorted(n, offset, log_span, seed):
    grid = np.linspace(offset, offset + 10.0**log_span, n)
    assert assert_searchsorted_cell_rule(grid, seed) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 2000), st.sampled_from(["sorted", "geometric"]),
       st.integers(0, 2**32 - 1))
def test_uneven_grid_keeps_searchsorted(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "geometric":
        grid = np.geomspace(1e-3, 1e3, n) * rng.choice([-1.0, 1.0])
        grid.sort()
    else:
        grid = np.unique(rng.uniform(-5.0, 5.0, n))
    calls = assert_searchsorted_cell_rule(grid, seed)
    if kind == "geometric":
        assert calls >= 1


def test_envelope_lookup_needs_no_searchsorted(regularized_linear_tail):
    # the envelope table is a linspace, so its lookup is arithmetic
    x = np.random.default_rng(6).normal(0.0, 5.0, (64, 16, 1))
    p = regularized_linear_tail
    assert searchsorted_calls(lambda: (p.value(x), p.grad(x), p.value_and_grad(x)))[0] == 0
    geometric = hf.tabulated(np.geomspace(0.1, 100.0, 300), np.linspace(0.0, 1.0, 300))
    assert searchsorted_calls(lambda: geometric.value_and_grad(x))[0] >= 1


@pytest.mark.parametrize("grid,values", [
    ([0.0, np.nan, 1.0], [0.0, 1.0, 2.0]),
    ([0.0, 1.0, np.inf], [0.0, 1.0, 2.0]),
    ([-np.inf, 0.0, 1.0], [0.0, 1.0, 2.0]),
    ([0.0, 1.0, 2.0], [0.0, np.nan, 2.0]),
    ([0.0, 1.0, 2.0], [0.0, 1.0, -np.inf]),
])
def test_tabulated_rejects_non_finite(grid, values):
    with pytest.raises(ValueError, match="must be finite"):
        hf.tabulated(grid, values)


def _fused_cases():
    grid = np.linspace(-2.0, 3.0, 41)
    table = hf.tabulated(grid, np.sin(3.0 * grid) + grid**2)
    inside = np.linspace(-1.9, 2.9, 5 * 7).reshape(5, 7, 1)
    beyond = np.array([-40.0, -2.5, -2.0, 3.0, 3.5, 60.0]).reshape(2, 3, 1)
    pts = np.random.default_rng(4).normal(0.0, 2.0, (5, 7, 1))
    raw_only = Potential(dim=1, raw_fn=lambda x: np.cos(x[..., 0]) + x[..., 0] ** 2)
    return [
        ("bump", hf.bump(0.3, 0.5, 0.5), pts),
        ("bump_2d", hf.bump([0.3, -0.2], 0.7, -0.4, dim=2),
         np.random.default_rng(5).normal(0.0, 1.5, (5, 7, 2))),
        ("normalized_bump", hf.normalize(hf.bump(0.0, 0.5, 0.5)), pts),
        ("tabulated_inside", table, inside),
        ("tabulated_beyond", table, beyond),
        ("normalized_tabulated", hf.normalize(table), inside),
        ("mollify", hf.mollify(hf.linear_tail(), 0.5), 10.0 * pts),
        ("normalized_gaussian", hf.normalize(hf.gaussian(1.0)), pts),
        ("fallback_raw_only", raw_only, pts),
    ]


@pytest.mark.parametrize("name,p,x", [pytest.param(*c, id=c[0]) for c in _fused_cases()])
def test_value_and_grad_bit_equal_to_separate_calls(name, p, x):
    assert (p.value_grad_fn is None) == name.startswith("fallback")
    v, g = p.value_and_grad(x)
    assert v.shape == x.shape[:-1] and g.shape == x.shape
    assert np.array_equal(v, p.value(x))
    assert np.array_equal(g, p.grad(x))


def test_from_config_family_and_overrides():
    # the family supplies the metadata; a config may not override it
    p = hf.from_config({"family": "gaussian", "params": {"rho": -0.9}})
    assert p.curvature_lower == 0.9
    assert p.normalized
    with pytest.raises(ValueError, match=r"unknown potential config keys \['curvature_lower'\]"):
        hf.from_config({"family": "gaussian", "params": {"rho": -0.9},
                        "curvature_lower": 0.1})


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_from_config_table():
    # quad flags roundoff on the 1600-knot piecewise-linear density; the
    # achieved accuracy is still orders beyond the tolerance checked here
    grid = np.linspace(-8, 8, 1601)
    cfg = {"table": {"grid": grid.tolist(), "values": (0.3 * grid**2).tolist()}}
    p = hf.from_config(cfg)
    assert p.normalized
    assert quad_mass(p, -20, 20) == pytest.approx(1.0, abs=1e-6)


def test_from_config_transforms():
    cfg = {"family": "linear_tail",
           "transforms": [{"op": "lipschitz_regularize", "l": 1.0, "r": 6.0}]}
    p = hf.from_config(cfg)
    assert p.grad_sup_norm == 1.0
    assert p.normalized


def test_from_config_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown potential family 'nope'"):
        hf.from_config({"family": "nope"})


@pytest.mark.parametrize("cfg,match", [
    ({"family": "gaussian", "params": {"rho": 1.0}, "normalise": False},
     r"unknown potential config keys \['normalise'\]"),
    ({"family": "gaussian", "table": {"grid": [0, 1], "values": [0, 0]}},
     r"unknown potential config keys \['table'\]"),
    ({"table": {"grid": [0, 1], "values": [0, 0], "kind": "linear"}},
     r"unknown table keys \['kind'\]"),
    ({"family": "bump", "transforms": [{"op": "mollify", "sigma": 0.5}]},
     "unknown transform 'mollify'"),
    ({"family": "linear_tail", "transforms": [{"op": "lipschitz_regularize",
                                                "l": 1.0, "r": 6.0, "tol": 1.0}]},
     r"unknown lipschitz_regularize transform keys \['tol'\]"),
    ({"family": "gaussian", "params": {"rho": "1"}}, "'rho' must be a JSON number"),
    ({"table": {"grid": ["0", "1"], "values": [0, 0]}}, "'grid' must be a JSON number"),
    ({"family": "gaussian", "params": {"rho": 1.0}, "grad_sup_norm": 1.0},
     r"unknown potential config keys \['grad_sup_norm'\]"),
    ({"family": "gaussian", "params": {"rho": 1.0}, "normalize": False},
     r"unknown potential config keys \['normalize'\]"),
    *[({"family": "bump", "params": bad}, "params must be a JSON object")
      for bad in ([], 0, "", False, None)],
    *[({"family": "bump", "transforms": bad}, "transforms must be a JSON list")
      for bad in ({}, {"op": "lipschitz_regularize", "l": 1.0, "r": 6.0},
                  "lipschitz_regularize", None)],
])
def test_from_config_rejects_unknown_keys_and_non_json_types(cfg, match):
    with pytest.raises(ValueError, match=match):
        hf.from_config(cfg)


def test_only_the_bump_declares_a_locus(std_bump):
    # the semigroup's y rule reads the locus (center, radius) of a bump;
    # the shift of normalize leaves raw_fn alone and keeps it, and a
    # transform that builds a new raw_fn declares none
    assert hf.bump((0.3, -0.2), 0.4, 0.8, dim=2).locus == ((0.3, -0.2), 0.4)
    assert hf.bump(0.5, 0.25, 1.0).locus == ((0.5,), 0.25)
    assert std_bump.normalized and std_bump.locus == ((0.0,), 0.5)
    others = [hf.gaussian(1.0), hf.linear_tail(), hf.vt_counterexample(4.0),
              hf.sharpness(4.0, 0.5), hf.mollify(std_bump, 0.3),
              hf.lipschitz_regularize(std_bump, 1.0, 4.0),
              hf.tabulated(np.linspace(-1.0, 1.0, 5), np.zeros(5))]
    assert all(p.locus is None for p in others)
